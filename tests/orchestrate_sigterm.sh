#!/usr/bin/env bash
# ctest driver: SIGTERM to a running `smt_orchestrate run` takes its
# workers down with it.
#
# Workers run in their own process groups, so a signal sent to the driver
# alone never reaches them; the driver must kill and reap them before it
# exits. Starts a 2-shard fig1 sweep with windows long enough that both
# workers are mid-run, sends SIGTERM to the driver, and asserts that the
# driver died by SIGTERM, that no worker PID survives it, and that the
# journal marks the interrupted shards resumable.
#
#   orchestrate_sigterm.sh <smt_orchestrate> <smt_shard> <work_dir>
set -u
orch=$1
shard=$2
work=$3
rm -rf "$work"
mkdir -p "$work"

workers=()
cleanup() {
  # A failing run must not leak workers either.
  for pid in "${workers[@]}"; do kill -KILL "$pid" 2>/dev/null; done
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- driver log ---" >&2
  cat "$work/orch.log" >&2
  exit 1
}

# A live process, not a zombie waiting for a reaper.
alive() {
  local state
  state=$(awk '{print $3}' "/proc/$1/stat" 2>/dev/null) || return 1
  [ -n "$state" ] && [ "$state" != Z ]
}

SMT_BENCH_WINDOWS=20000:5000000 "$orch" run --grid fig1 --shards 2 --jobs 2 \
  --out-dir "$work" --smt-shard "$shard" >"$work/orch.log" 2>&1 &
driver=$!

for _ in $(seq 1 200); do
  mapfile -t workers < <(pgrep -P "$driver" -x smt_shard)
  [ "${#workers[@]}" -ge 2 ] && break
  sleep 0.05
done
[ "${#workers[@]}" -ge 2 ] || fail "expected 2 live workers, saw ${#workers[@]}"
echo "driver $driver, workers ${workers[*]}"

kill -TERM "$driver"
for _ in $(seq 1 200); do
  alive "$driver" || break
  sleep 0.05
done
alive "$driver" && fail "driver still running 10 s after SIGTERM"
wait "$driver"
rc=$?
[ "$rc" -eq 143 ] || fail "driver exit status $rc, want 143 (killed by SIGTERM)"

for pid in "${workers[@]}"; do
  alive "$pid" && fail "worker $pid survived the driver"
done

grep -q "interrupted by signal 15" "$work/orch.log" || fail "no interrupt message"
state="$work/SWEEP_fig1.state.json"
[ "$(grep -c '"state": "pending"' "$state")" -eq 2 ] ||
  fail "journal does not mark both interrupted shards pending: $(cat "$state")"
echo "SIGTERM: driver exited 143, ${#workers[@]} workers reaped, journal resumable"
