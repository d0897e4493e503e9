#!/bin/sh
# Every argument below is out of range: firefly must refuse it as a
# command-line error (exit 124) before anything runs, so stdout stays
# empty.  An uncaught exception would exit 125, a run that went ahead
# 0 or 1.  Each failing case prints its own command line.
#
# usage: bad_args.sh FIREFLY_EXE
set -f
exe=$1
status=0
while read -r args; do
  case $args in '' | '#'*) continue ;; esac
  # $args is split into words on purpose.
  out=$($exe $args 2>/dev/null)
  code=$?
  if [ "$code" -ne 124 ] || [ -n "$out" ]; then
    echo "firefly $args: exit $code, stdout ${#out} bytes; expected exit 124 and no output"
    status=1
  fi
done <<'CASES'
# Fleet scenario fields, checked by Fleet.Scenario.validate
fleet --arrival pareto --alpha 1.0
fleet --think=-5
fleet --arrival poisson --rate 0
fleet --nodes 1
fleet --nodes 201
fleet --nodes 300
fleet --clients 0
fleet --calls 0
fleet --egress-capacity 0
fleet --payload 60001
fleet --payload 70000
fleet --payload=-1
fleet --scenario straggler --straggler-speedup 0
fleet --switch-latency=-1
fleet --switch-latency nan
# Machine configurations, checked by Hw.Config.validate
call --cpus 0
call --caller-cpus 0
call --server-cpus 0
call --mbps 0
call --cpu-speedup 0
breakdown --cpus 0
breakdown --caller-cpus 0
breakdown --server-cpus 0
# Explored workloads, checked by Check.Explorer.validate
check --payload 60001 --seeds 1
check --payload 70000 --seeds 1
check --threads 0
check --calls 0
check --max-steps 0
# Values that belong to no record, checked as they are parsed
call --threads 0
call --calls 0
call --transport socket --calls 0
call --bulk 60001
call --bulk 70000
call --bulk=-5
call --loss 1.0
call --loss=-0.5
call --loss nan
breakdown --calls 0
breakdown --threads 0
breakdown --percentile 150
breakdown --percentile=-5
repro --jobs 0 table9
fleet --jobs 0
fleet --seeds 0
check --seeds 0
fuzz --iters 0
fuzz --seed=-1
CASES
exit $status
