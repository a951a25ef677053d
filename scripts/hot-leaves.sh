#!/usr/bin/env bash
# The inlining contract of DESIGN.md §11, checked by name: benchmark/
# builds without LTO, so a per-op or per-line leaf that loses its
# `#[inline]` becomes an opaque cross-crate call. Fails if any leaf below
# is an out-of-line text symbol of the given release binary.
#
#   scripts/hot-leaves.sh <path to release kvd-benchmark>
set -euo pipefail
[[ $# -eq 1 ]] || { sed -n '2,7p' "$0" >&2; exit 2; }

leaves=(
    'kvd_ooo::station::ReservationStation::slot_of'
    'kvd_ooo::station::ReservationStation::issue'
    'kvd_ooo::station::ReservationStation::forward'
    'kvd_ooo::station::ReservationStation::install'
    'kvd_hash::hashing::hash_key'
    'kvd_mem::nicdram::NicDram::locate'
    'kvd_mem::nicdram::NicDram::occupants'
    'kvd_mem::nicdram::NicDram::rr_victim'
    'kvd_mem::nicdram::NicDram::install'
    'kvd_mem::nicdram::NicDram::mark_dirty'
    'kvd_mem::dispatch::LoadDispatcher::is_cacheable'
    'kvd_mem::dispatch::hash_line'
    'kvd_mem::host::HostMemory::read'
    'kvd_mem::host::HostMemory::write'
    'kvd_mem::host::HostMemory::prefetch'
    'kvd_mem::host::HostMemory::line'
    'kvd_hash::table::HashTable<M>::prefetch_bucket'
    'kvd_hash::table::HashTable<M>::prefetch_records'
    'kvd_sim::rng::DetRng::u64'
    'kvd_sim::rng::DetRng::u64_below'
    'kvd_sim::rng::DetRng::f64'
    'kvd_sim::fault::FaultPlane::host_stall'
    'kvd_sim::fault::FaultPlane::dram_fault'
    '<kvd_hash::swar::RawEntries as core::iter::traits::iterator::Iterator>::next'
    'kvd_sim::ledger::LatencyCosts::record'
    'kvd_sim::stats::Histogram::record_time'
)

# Demangled text symbols, one name per line (address and type dropped).
symbols=$(nm -C --defined-only "$1" | sed -n 's/^[0-9a-f]* [tT] //p' | sort -u)
[[ -n $symbols ]] || { echo "hot-leaves: no text symbols in $1 (stripped?)" >&2; exit 2; }
out_of_line=$(grep -Fx -f <(printf '%s\n' "${leaves[@]}") <<<"$symbols" || true)
if [[ -n $out_of_line ]]; then
    echo "hot-leaves: out of line in $1:" >&2
    sed 's/^/  /' <<<"$out_of_line" >&2
    exit 1
fi
echo "hot-leaves: ${#leaves[@]} leaves inline in $1"
