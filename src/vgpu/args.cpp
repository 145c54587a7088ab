#include "vgpu/args.hpp"

#include <stdexcept>

#include "fp/bits.hpp"
#include "fp/hexfloat.hpp"

namespace gpudiff::vgpu {

bool operator==(const KernelArgs& a, const KernelArgs& b) noexcept {
  if (a.ints != b.ints || a.fp.size() != b.fp.size()) return false;
  for (std::size_t i = 0; i < a.fp.size(); ++i)
    if (fp::to_bits(a.fp[i]) != fp::to_bits(b.fp[i])) return false;
  return true;
}

std::string KernelArgs::to_varity_string(const ir::Program& program) const {
  std::string out;
  const auto& params = program.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i) out += ' ';
    if (params[i].kind == ir::ParamKind::Int) {
      out += std::to_string(ints.at(i));
    } else if (program.precision() == ir::Precision::FP32) {
      out += fp::print_varity(static_cast<float>(fp.at(i)));
    } else {
      out += fp::print_varity(fp.at(i));
    }
  }
  return out;
}

support::Json KernelArgs::to_json(const ir::Program& program) const {
  support::Json arr = support::Json::array();
  const auto& params = program.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].kind == ir::ParamKind::Int)
      arr.push_back(support::Json(static_cast<long long>(ints.at(i))));
    else
      arr.push_back(support::Json(fp::encode_bits(fp.at(i))));
  }
  return arr;
}

KernelArgs KernelArgs::from_json(const support::Json& j, const ir::Program& program) {
  const auto& params = program.params();
  const auto& arr = j.as_array();
  if (arr.size() != params.size())
    throw std::runtime_error("KernelArgs: input count mismatch");
  KernelArgs args;
  args.fp.assign(params.size(), 0.0);
  args.ints.assign(params.size(), 0);
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].kind == ir::ParamKind::Int) {
      args.ints[i] = static_cast<int>(arr[i].as_int());
    } else {
      auto v = fp::decode_bits64(arr[i].as_string());
      if (!v) throw std::runtime_error("KernelArgs: bad fp bits");
      args.fp[i] = *v;
    }
  }
  return args;
}

}  // namespace gpudiff::vgpu
