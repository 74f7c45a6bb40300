#!/usr/bin/env bash
# ctest driver: SIGTERM to a running `smt_orchestrate run` takes its
# workers down with it.
#
# Workers run in their own process groups, so a signal sent to the driver
# alone never reaches them; the driver must kill and reap them before it
# exits. Starts a 2-shard fig1 sweep with windows long enough that both
# workers are mid-run, sends SIGTERM to the driver, and asserts that the
# driver died by SIGTERM, that no worker PID (nor anything else in the
# worker process groups) survives it, and that the journal marks the
# interrupted shards resumable. Runs once with local workers and, given
# the fake-ssh shim, once with --backend remote, where each worker group
# is a transport with the `smt_shard` worker beneath it.
#
#   orchestrate_sigterm.sh <smt_orchestrate> <smt_shard> <work_dir> [<fake_ssh>]
set -u
orch=$1
shard=$2
work=$3
fake_ssh=${4:-}
rm -rf "$work"
mkdir -p "$work"

workers=()
members=()
log=/dev/null
cleanup() {
  # A failing run must not leak workers either.
  for pid in "${workers[@]}" "${members[@]}"; do kill -KILL "$pid" 2>/dev/null; done
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "--- driver log ---" >&2
  cat "$log" >&2
  exit 1
}

# A live process, not a zombie waiting for a reaper.
alive() {
  local state
  state=$(awk '{print $3}' "/proc/$1/stat" 2>/dev/null) || return 1
  [ -n "$state" ] && [ "$state" != Z ]
}

# sigterm_leg <label> <out_dir> [extra `run` flags...]
sigterm_leg() {
  local label=$1 dir=$2
  shift 2
  mkdir -p "$dir"
  log="$dir/orch.log"
  workers=()
  members=()

  SMT_BENCH_WINDOWS=20000:5000000 "$orch" run --grid fig1 --shards 2 --jobs 2 \
    --out-dir "$dir" --smt-shard "$shard" "$@" >"$log" 2>&1 &
  local driver=$!

  # Each child of the driver leads one worker process group: the worker
  # itself, or a remote transport with the worker beneath it.
  local groups=""
  for _ in $(seq 1 200); do
    groups=$(pgrep -d, -P "$driver")
    [ -n "$groups" ] && mapfile -t workers < <(pgrep -x smt_shard -g "$groups")
    [ "${#workers[@]}" -ge 2 ] && break
    sleep 0.05
  done
  [ "${#workers[@]}" -ge 2 ] || fail "$label: expected 2 live workers, saw ${#workers[@]}"
  mapfile -t members < <(pgrep -g "$groups")
  echo "$label: driver $driver, workers ${workers[*]}, worker groups $groups"

  kill -TERM "$driver"
  for _ in $(seq 1 200); do
    alive "$driver" || break
    sleep 0.05
  done
  alive "$driver" && fail "$label: driver still running 10 s after SIGTERM"
  wait "$driver"
  local rc=$?
  [ "$rc" -eq 143 ] || fail "$label: driver exit status $rc, want 143 (killed by SIGTERM)"

  for pid in "${workers[@]}"; do
    alive "$pid" && fail "$label: worker $pid survived the driver"
  done
  for pid in "${members[@]}"; do
    alive "$pid" && fail "$label: worker group member $pid survived the driver"
  done

  grep -q "interrupted by signal 15" "$log" || fail "$label: no interrupt message"
  local state="$dir/SWEEP_fig1.state.json"
  [ "$(grep -c '"state": "pending"' "$state")" -eq 2 ] ||
    fail "$label: journal does not mark both interrupted shards pending: $(cat "$state")"
  echo "$label SIGTERM: driver exited 143, ${#workers[@]} workers reaped, journal resumable"
}

sigterm_leg local "$work"
if [ -n "$fake_ssh" ]; then
  sigterm_leg remote "$work/remote" --backend remote --hosts alpha,beta \
    --exec-template "$fake_ssh {host} {cmd}" --remote-shard "$shard"
fi
