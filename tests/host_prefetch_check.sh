#!/bin/sh
# Checks that the simulator's host set-array hints survive the
# optimizer: the latency probe's look-ahead (latency_probe.cpp.o) and
# the victim-set hint (hierarchy.cpp.o) must each assemble to at least
# one prefetch instruction.  A dropped hint changes no simulated
# result, so no output test can notice it (see prefetch_set in
# src/sim/cache/cache.hpp for how GCC dropped them once).
#
#   host_prefetch_check.sh PROCESSOR CONFIG OBJDUMP OBJECT...
#
# An OBJECT argument may be a ';'-separated list, the form ctest
# passes $<TARGET_OBJECTS:...> in.
#
# Exits 0 on pass, 1 on failure and 77 (skip) when the target is not
# x86-64, objdump is missing, or CONFIG is not Release, the measured
# configuration.
set -u
processor=$1 config=$2 objdump=$3
shift 3

skip() {
  echo "SKIP: $1"
  exit 77
}
case $processor in
  x86_64 | AMD64 | amd64) ;;
  *) skip "prefetch mnemonics are checked on x86-64 only, not $processor" ;;
esac
[ "$config" = Release ] || skip "build type is '$config', not Release"
command -v "$objdump" >/dev/null 2>&1 || skip "no objdump ('$objdump')"

set -f
IFS=';'
status=0
for name in latency_probe hierarchy; do
  object=
  for candidate in $*; do
    case $candidate in */$name.cpp.o) object=$candidate ;; esac
  done
  if [ -z "$object" ]; then
    echo "FAIL: no $name.cpp.o among the objects given"
    status=1
    continue
  fi
  count=$("$objdump" -d --no-show-raw-insn "$object" |
    grep -cE '^[[:space:]]*[0-9a-f]+:[[:space:]]+prefetch')
  if [ "$count" -gt 0 ]; then
    echo "ok: $name.cpp.o holds $count prefetch instruction(s)"
  else
    echo "FAIL: $name.cpp.o holds no prefetch instruction:" \
      "the host set-array hints were optimized away"
    status=1
  fi
done
exit $status
