#!/usr/bin/env bash
# Network chaos harness: the CLI-level end-to-end check that the serving
# fleet survives real process churn and socket-layer faults.
#
# Topology: `ocps router` in front of 3 `ocps serve` backends on Unix
# sockets, every backend running with deterministic write-fault chaos
# armed (resets, trickles, stalls). Load: 4 shell workers issuing
# `ocps query` partition requests with retries through the router while
# the harness SIGKILLs one backend mid-load and restarts it on the same
# socket path (exercising the stale-socket reclaim).
#
# Pass criteria (non-zero exit on any violation):
#  * zero wrong answers: every ok response parses, echoes its id, and
#    carries an alloc of the right arity whose blocks fit the capacity;
#  * every failed request failed cleanly: exit code 1 with a classified
#    429/502/503/504 status — never a corrupt line or a hang;
#  * availability >= 95% across the whole run despite the kill;
#  * the restarted backend is readmitted: router health reports all
#    backends up with closed breakers at the end;
#  * connection churn leaves no residue: after a few thousand
#    short-lived connections to the router and to one backend, neither
#    process's /proc/<pid>/maps line count or VmSize has grown beyond a
#    fixed bound (a finished connection's reader thread is reaped);
#  * the router's Prometheus exposition carries the serve.router.* and
#    serve.fleet.* series;
#  * everything drains cleanly on SIGTERM.
#
# Usage: tools/run_chaos_check.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
ocps="$build_dir/tools/ocps"

if [[ ! -x "$ocps" ]]; then
  echo "building ocps CLI into $build_dir ..."
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$(nproc)" --target ocps_cli
fi

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in ${pids[@]+"${pids[@]}"}; do
    kill "$pid" 2> /dev/null || true
  done
  wait 2> /dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# --- profile set -----------------------------------------------------------
awk 'BEGIN { for (i = 0; i < 8000; i++) printf "%d\n", (i % 120) * 64 }' \
  > "$workdir/a.txt"
awk 'BEGIN { for (i = 0; i < 8000; i++) printf "%d\n", (i % 450) * 64 }' \
  > "$workdir/b.txt"
awk 'BEGIN { for (i = 0; i < 8000; i++) printf "%d\n", (i % 260) * 64 }' \
  > "$workdir/c.txt"
"$ocps" profile "$workdir/a.txt" -o "$workdir/a.fp" --name alpha > /dev/null
"$ocps" profile "$workdir/b.txt" -o "$workdir/b.fp" --name beta > /dev/null
"$ocps" profile "$workdir/c.txt" -o "$workdir/c.fp" --name gamma > /dev/null
profiles=("$workdir/a.fp" "$workdir/b.fp" "$workdir/c.fp")

# --- fleet -----------------------------------------------------------------
start_backend() { # index
  local i="$1"
  "$ocps" serve "${profiles[@]}" \
    --socket "$workdir/b$i.sock" --capacity 256 \
    --chaos-reset 0.02 --chaos-trickle 0.05 --chaos-stall 0.05 \
    --chaos-stall-ms 5 --chaos-seed $((1000 + i)) \
    > "$workdir/backend$i.log" 2>&1 &
  echo $!
}

backend_pids=()
for i in 0 1 2; do
  backend_pids[$i]="$(start_backend "$i")"
  pids+=("${backend_pids[$i]}")
done

for i in 0 1 2; do
  for _ in $(seq 1 50); do
    [[ -S "$workdir/b$i.sock" ]] && break
    sleep 0.1
  done
  [[ -S "$workdir/b$i.sock" ]] || fail "backend $i never bound its socket"
done

"$ocps" router --socket "$workdir/router.sock" \
  --backends "$workdir/b0.sock,$workdir/b1.sock,$workdir/b2.sock" \
  --breaker-threshold 3 --breaker-cooldown-ms 300 \
  --health-interval-ms 100 --metrics-port -1 \
  > "$workdir/router.log" 2>&1 &
router_pid=$!
pids+=("$router_pid")
for _ in $(seq 1 50); do
  [[ -S "$workdir/router.sock" ]] && break
  sleep 0.1
done
[[ -S "$workdir/router.sock" ]] || fail "router never bound its socket"

# --- load ------------------------------------------------------------------
requests_per_worker="${OCPS_CHAOS_REQUESTS:-40}"
run_worker() { # worker-id
  local w="$1" out="$workdir/worker$1.out"
  local groups=("alpha,beta" "beta,gamma" "alpha,gamma" "alpha,beta,gamma")
  for ((r = 0; r < requests_per_worker; r++)); do
    local group="${groups[$(((w + r) % 4))]}"
    if "$ocps" query --socket "$workdir/router.sock" --op partition \
        --programs "$group" --capacity 256 --deadline-ms 5000 \
        --retries 4 >> "$out" 2>> "$workdir/worker$w.err"; then
      echo "OK $group" >> "$workdir/worker$w.status"
    else
      echo "ERR $group" >> "$workdir/worker$w.status"
    fi
  done
}

for w in 0 1 2 3; do
  run_worker "$w" &
  pids+=("$!")
  worker_pids[$w]=$!
done

# --- the outage ------------------------------------------------------------
sleep 2
victim=1
echo "killing backend $victim (SIGKILL) mid-load ..."
kill -9 "${backend_pids[$victim]}" 2> /dev/null || true
sleep 2
echo "restarting backend $victim on the same socket path ..."
backend_pids[$victim]="$(start_backend "$victim")"
pids+=("${backend_pids[$victim]}")

for w in 0 1 2 3; do
  wait "${worker_pids[$w]}" || true
done

# --- validation ------------------------------------------------------------
total=$(cat "$workdir"/worker*.status | wc -l)
ok=$(grep -c '^OK' "$workdir"/worker*.status | awk -F: '{s+=$2} END {print s}')
[[ "$total" -eq $((4 * requests_per_worker)) ]] \
  || fail "expected $((4 * requests_per_worker)) outcomes, saw $total"

if command -v python3 > /dev/null; then
  python3 - "$workdir" <<'EOF'
import glob, json, sys

workdir = sys.argv[1]
answers = 0
for path in glob.glob(workdir + "/worker*.out"):
    for line in open(path):
        line = line.strip()
        if not line:
            continue
        resp = json.loads(line)  # a corrupt line throws -> FAIL
        assert resp.get("ok") is True, f"non-ok line in stdout: {line}"
        alloc = resp["alloc"]
        programs = resp["programs"]
        assert len(alloc) == len(programs), f"alloc arity mismatch: {line}"
        assert sum(alloc) <= 256, f"alloc exceeds capacity: {line}"
        answers += 1
errors = 0
for path in glob.glob(workdir + "/worker*.err"):
    for line in open(path):
        if "daemon replied" in line:
            code = int(line.split("daemon replied ")[1].split(":")[0])
            assert code in (429, 502, 503, 504), f"unclean failure: {line}"
            errors += 1
print(f"validated {answers} ok answers, {errors} clean in-band errors")
EOF
else
  fail "python3 is required to validate responses"
fi

avail=$((ok * 100 / total))
echo "availability: $ok/$total (${avail}%)"
[[ "$avail" -ge 95 ]] || fail "availability ${avail}% < 95%"

# Restarted backend must be readmitted (breakers closed, all up).
readmitted=""
for _ in $(seq 1 50); do
  health="$("$ocps" query --socket "$workdir/router.sock" --op health)" || true
  if command -v python3 > /dev/null \
    && echo "$health" | python3 -c '
import json, sys
h = json.load(sys.stdin)
rows = h["backends"]
ok = len(rows) == 3 and all(b["up"] and b["state"] == "closed" for b in rows)
sys.exit(0 if ok else 1)
'; then
    readmitted=yes
    break
  fi
  sleep 0.2
done
[[ -n "$readmitted" ]] || fail "restarted backend was never readmitted"

# --- connection churn --------------------------------------------------------
# Short-lived connections: partitions through the router (each opens a
# router->backend lane too) and health probes straight at backend 0.
# Only resource growth is judged here; chaos resets on the backend are
# expected and ignored.
churn_connections="${OCPS_CHAOS_CHURN:-1500}"
max_maps_growth=100      # /proc/<pid>/maps lines
max_vm_growth_kb=262144  # 256 MiB of VmSize
proc_usage() { # pid -> "maps_lines vmsize_kb"
  echo "$(wc -l < "/proc/$1/maps") $(awk '/^VmSize:/ { print $2 }' \
    "/proc/$1/status")"
}
read -r router_maps0 router_vm0 <<< "$(proc_usage "$router_pid")"
read -r backend_maps0 backend_vm0 <<< "$(proc_usage "${backend_pids[0]}")"
python3 - "$workdir/router.sock" "$workdir/b0.sock" "$churn_connections" \
  <<'EOF'
import socket, sys

router, backend, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
requests = [
    (router, b'{"id":1,"op":"partition","programs":["alpha","beta"],'
             b'"capacity":256}\n'),
    (backend, b'{"id":2,"op":"health"}\n'),
]
answered = 0
for _ in range(n):
    for path, line in requests:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(5)
        try:
            s.connect(path)
            s.sendall(line)
            if s.makefile("rb").readline().endswith(b"\n"):
                answered += 1
        except OSError:
            pass
        finally:
            s.close()
print(f"churned {2 * n} short-lived connections, {answered} answered")
EOF
sleep 0.5  # the last readers notice their hang-ups within one poll tick
read -r router_maps1 router_vm1 <<< "$(proc_usage "$router_pid")"
read -r backend_maps1 backend_vm1 <<< "$(proc_usage "${backend_pids[0]}")"
echo "churn: router maps $router_maps0 -> $router_maps1, VmSize" \
  "$router_vm0 -> $router_vm1 kB; backend maps $backend_maps0 ->" \
  "$backend_maps1, VmSize $backend_vm0 -> $backend_vm1 kB"
check_growth() { # who maps0 maps1 vm0 vm1
  (($3 - $2 <= max_maps_growth)) \
    || fail "$1 maps grew by $(($3 - $2)) lines under churn"
  (($5 - $4 <= max_vm_growth_kb)) \
    || fail "$1 VmSize grew by $(($5 - $4)) kB under churn"
}
check_growth router "$router_maps0" "$router_maps1" "$router_vm0" "$router_vm1"
check_growth backend "$backend_maps0" "$backend_maps1" "$backend_vm0" \
  "$backend_vm1"

# Fleet-wide Prometheus exposition from the router.
metrics_port="$(sed -n 's/.*http:\/\/127\.0\.0\.1:\([0-9]*\)\/metrics.*/\1/p' \
  "$workdir/router.log" | head -1)"
[[ -n "$metrics_port" ]] || fail "router never announced its metrics port"
scrape="$workdir/scrape.txt"
if command -v curl > /dev/null; then
  curl -sf "http://127.0.0.1:$metrics_port/metrics" > "$scrape" \
    || fail "metrics scrape failed"
else
  exec 3<> "/dev/tcp/127.0.0.1/$metrics_port" \
    || fail "metrics connect failed"
  printf 'GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n' >&3
  cat <&3 > "$scrape"
  exec 3<&- 3>&-
fi
for series in serve_router_requests serve_router_forwarded \
  serve_router_failovers serve_router_health_probes serve_fleet_requests; do
  grep -q "^$series" "$scrape" || fail "metrics missing series $series"
done

# --- drain -----------------------------------------------------------------
# The daemons are not direct children of this shell (started via command
# substitution), so `wait` cannot reap them — poll their logs for the
# drain banner instead.
wait_drained() { # logfile what
  for _ in $(seq 1 50); do
    grep -q "drained:" "$1" && return 0
    sleep 0.1
  done
  fail "$2 did not drain"
}
kill "$router_pid"
wait "$router_pid" 2> /dev/null || true
wait_drained "$workdir/router.log" "router"
for i in 0 1 2; do
  kill "${backend_pids[$i]}" 2> /dev/null || true
  wait_drained "$workdir/backend$i.log" "backend $i"
done

chaos_fired=$(sed -n 's/^chaos injected: //p' "$workdir"/backend*.log \
  | tr ', ' '\n' | grep -c '^[1-9]' || true)
echo "chaos summary: $(sed -n 's/^chaos injected: //p' \
  "$workdir"/backend*.log | tr '\n' '; ')"
[[ "$chaos_fired" -gt 0 ]] || fail "chaos injectors never fired"

echo "PASS: fleet survived chaos + kill/restart with ${avail}% availability"
