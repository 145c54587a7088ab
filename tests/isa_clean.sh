#!/bin/sh
# ISA check for the gpudiff library: fail if any object file in the given
# static archive contains a VEX- or EVEX-encoded instruction (AVX and up)
# or a %ymm/%zmm operand, naming each offending object file.  Every code
# path must run on a baseline x86-64 host: a single VEX instruction that
# the linker keeps (for example a weak inline function compiled in a
# -mavx2 translation unit) faults with SIGILL on a CPU without AVX.
#
#   sh tests/isa_clean.sh build/libgpudiff.a
#
# Exits 77 (CTest SKIP_RETURN_CODE) when objdump is absent or the archive
# is not x86-64 code.

lib="$1"
if [ -z "$lib" ] || [ ! -f "$lib" ]; then
  echo "isa_clean: no archive given or '$lib' missing" >&2
  exit 2
fi
if ! command -v objdump >/dev/null 2>&1; then
  echo "isa_clean: objdump not found, skipping" >&2
  exit 77
fi

listing=$(objdump -d --no-show-raw-insn "$lib") || {
  echo "isa_clean: objdump failed on $lib" >&2
  exit 2
}
if ! printf '%s\n' "$listing" | grep -q 'file format elf64-x86-64'; then
  echo "isa_clean: $lib is not x86-64 code, skipping" >&2
  exit 77
fi

# Instruction lines look like "  1a2b:<TAB>vaddsd %xmm1,%xmm0,%xmm0".
# Every AVX/AVX-512 mnemonic starts with 'v'; the only legacy-encoded
# 'v' mnemonics are verr/verw and the VMX/SVM instructions, excluded here.
printf '%s\n' "$listing" | awk -v lib="$lib" '
  /file format/ { obj = $1; sub(/:$/, "", obj); next }
  /^ *[0-9a-f]+:\t/ {
    split($0, field, "\t")
    insn = field[2]
    split(insn, word, " ")
    m = word[1]
    legacy = m ~ /^(verr|verw|vmcall|vmlaunch|vmresume|vmxoff|vmxon|vmread|vmwrite|vmptrld|vmptrst|vmclear|vmfunc|vmrun|vmload|vmsave|vmmcall)$/
    if (insn ~ /%[yz]mm/ || (m ~ /^v/ && !legacy)) {
      if (!(obj in bad)) order[++n_obj] = obj
      bad[obj]++
      total++
    }
  }
  END {
    for (i = 1; i <= n_obj; ++i)
      printf "isa_clean: %s: %d VEX/EVEX or YMM/ZMM instruction lines\n", order[i], bad[order[i]]
    if (total > 0) {
      printf "isa_clean: FAIL: %d lines in %d object file(s) of %s\n", total, n_obj, lib
      exit 1
    }
    printf "isa_clean: OK: no VEX/EVEX or YMM/ZMM code in %s\n", lib
  }'
