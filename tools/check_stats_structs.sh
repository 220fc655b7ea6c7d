#!/usr/bin/env bash
# Lints against ad-hoc metrics outside src/obs:
#  - a new `struct *Stats` declaration.  Subsystem counters belong in
#    the metrics registry (obs::StatsScope — see DESIGN.md §9); the
#    structs below predate the registry and are read through
#    `obs::StatsView`.  Extend the allowlist only for another struct
#    read that way, never for a struct that owns counters;
#  - a `mutable` member of a `*Stats` type, or an accessor returning
#    `const …Stats&`: a snapshot filled by hand, which concurrent
#    readers race on.  `stats()` returns `view_.Read()` by value.
set -u -o pipefail

cd "$(dirname "$0")/.."

# file:StructName pairs of the grandfathered snapshot-view structs.
ALLOWED="
src/chaos/fault_schedule.h:ChaosStats
src/consistency/coherency.h:CoherencyStats
src/consistency/priority_scheduler.h:ClassStats
src/core/engine.h:EngineStats
src/net/message.h:NetworkStats
src/pubsub/broker.h:BrokerStats
src/pubsub/reliable.h:ReliableStats
src/replica/replicated_store.h:ReplicaStats
src/runtime/buffer_pool.h:BufferPoolStats
src/runtime/elastic_executor.h:ElasticStats
src/runtime/serverless.h:FunctionStats
src/storage/kv_store.h:KVStoreStats
src/stream/scheduler.h:QueryStats
"

found=$(grep -rnE 'struct[[:space:]]+[A-Za-z_]*Stats\b' \
            src tests bench examples 2>/dev/null \
        | grep -v '^src/obs/' || true)

status=0
while IFS= read -r line; do
  [ -z "$line" ] && continue
  file=${line%%:*}
  rest=${line#*:}           # "lineno:  struct FooStats {"
  lineno=${rest%%:*}
  name=$(printf '%s' "$rest" | grep -oE 'struct[[:space:]]+[A-Za-z_]*Stats' \
         | awk '{print $2}')
  if ! printf '%s\n' "$ALLOWED" | grep -qx "$file:$name"; then
    echo "error: new stats struct '$name' at $file:$lineno" >&2
    echo "  Counters belong in the metrics registry: give the owning" >&2
    echo "  class an obs::StatsScope and register counters/gauges/" >&2
    echo "  histograms on it (DESIGN.md \"Observability model\")." >&2
    status=1
  fi
done <<EOF
$found
EOF

member='mutable[[:space:]]+[A-Za-z_:]*Stats\b'
accessor='const[[:space:]]+[A-Za-z_:]*Stats&[[:space:]]*[A-Za-z_]+\('
if grep -rnE "$member|$accessor" src tests bench examples \
     | grep -v '^src/obs/' >&2; then
  echo "error: stats snapshot above; bind the struct through an" >&2
  echo "  obs::StatsView and return view_.Read() by value." >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_stats_structs: OK (no unregistered stats structs or snapshots)"
fi
exit $status
