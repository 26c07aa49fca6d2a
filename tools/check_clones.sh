#!/usr/bin/env bash
# Fails when a wide ISA clone calls out into baseline-ISA project code.
#
# Usage: tools/check_clones.sh <linked binary>
#
# HS_TILED_CLONES / HS_FAST_CLONES (src/kernels/isa.h) compile a function
# twice, for the baseline ISA and for a wide one, and pick the clone at load
# time. Only the function itself is cloned: a helper it calls out of line
# is compiled once, for the baseline ISA, so the wide clone would run its
# hot loop through baseline code (a depthwise clone that is a single jmp
# into an SSE body, for instance). Helpers must be force-inlined
# (HS_ALWAYS_INLINE) or hoisted out of the clone.
#
# The check disassembles the binary (pass one that links every hs_*
# library, such as perfbench_round_smoke) and, inside every
# "[clone .avx2]" or "[clone .arch_x86_64_v3]" body, looks at each call and
# jump. A target is fine when it is the function itself, another wide
# clone, or a PLT entry (libc, libm, libstdc++). A target in namespace
# hetero is a finding. A binary without wide clones (a sanitizer build, or
# a host other than x86-64) is skipped with exit code 77; an x86-64 build
# without them fails, since the check would then see nothing.
set -euo pipefail

if [[ $# -ne 1 || ! -x "$1" ]]; then
  echo "usage: $0 <linked binary>" >&2
  exit 2
fi

# awk prints the findings, then one last line with the number of wide
# clone bodies it walked.
report=$(objdump -d -C --no-show-raw-insn "$1" | awk '
# Function header: "<address> <demangled name>:"
/^[0-9a-f]+ <.*>:$/ {
  fn = substr($0, index($0, "<") + 1)
  sub(/>:$/, "", fn)
  wide = (fn ~ /\[clone \.(avx2|arch_x86_64_v3)\]$/)
  clones += wide
  next
}
wide {
  tab = index($0, "\t")
  if (!tab) next
  insn = substr($0, tab + 1)
  # Older binutils print "callq"/"jmpq".
  if (insn !~ /^(callq?|jmpq?|j[a-z]+)[ \t]+[0-9a-f]+ </) next
  target = substr(insn, index(insn, " <") + 2)
  sub(/>$/, "", target)
  sub(/\+0x[0-9a-f]+$/, "", target)
  if (target == fn || target ~ /@plt$/) next
  if (target ~ /\[clone \.(avx2|arch_x86_64_v3)/) next
  # Demangled template instances carry their return type ("void hetero::").
  if (target !~ /^([A-Za-z_0-9:]+[ *&]+)*hetero::/) next
  if (!seen[fn, target]++) print fn "\n    -> " target
}
END { print clones + 0 }')
clones=${report##*$'\n'}
findings=${report%"${clones}"}

if [[ -n "${findings}" ]]; then
  echo "check_clones: wide clones that call baseline-ISA project code:" >&2
  echo "${findings}" >&2
  exit 1
fi
if (( clones == 0 )); then
  # isa.h compiles the clones out of sanitizer builds and non-x86-64 hosts;
  # anywhere else an empty set means the clone pattern above is stale.
  format=$(objdump -f "$1" | sed -n 's/.*file format //p')
  sanitized=$(nm -D "$1" 2>/dev/null | grep -cE ' U __(asan|tsan)_init' || true)
  if [[ "${format}" == elf64-x86-64 && "${sanitized}" == 0 ]]; then
    echo "check_clones: no wide clone bodies in $1 (is the clone suffix" \
         "still [clone .avx2] / [clone .arch_x86_64_v3]?)" >&2
    exit 1
  fi
  echo "check_clones: skipped: $1 has no wide clones (sanitizer or" \
       "non-x86-64 build)"
  exit 77
fi
echo "check_clones: all ${clones} wide clones keep their work inline"
