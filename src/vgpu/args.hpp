#pragma once
// Kernel argument sets: the "Inputs:" line of a Varity test.
//
// One value per kernel parameter, aligned with Program::params():
// floating parameters (comp, scalars, arrays) use `fp`; integer loop bounds
// use `ints`.  Array parameters are initialized with their fp value
// replicated across all kArrayExtent elements, as Varity's generated main()
// does.  FP32 programs store the float value widened to double (exact).

#include <string>
#include <vector>

#include "ir/program.hpp"
#include "support/json.hpp"

namespace gpudiff::vgpu {

struct KernelArgs {
  std::vector<double> fp;  ///< indexed by param; valid for Comp/Scalar/Array
  std::vector<int> ints;   ///< indexed by param; valid for Int

  /// Varity input-file spelling: "+0.0 5 +1.7612E-322 ..." in param order.
  std::string to_varity_string(const ir::Program& program) const;

  /// Lossless metadata encoding (IEEE bit strings for fp values).
  support::Json to_json(const ir::Program& program) const;
  static KernelArgs from_json(const support::Json& j, const ir::Program& program);

  /// Bitwise equality: `fp` compares IEEE bit patterns, so -0.0 != +0.0,
  /// NaNs with different payloads differ and a NaN equals itself.  Two
  /// equal argument sets drive a kernel identically (the run memo in
  /// diff::SweepContext relies on this).
  friend bool operator==(const KernelArgs& a, const KernelArgs& b) noexcept;
};

}  // namespace gpudiff::vgpu
