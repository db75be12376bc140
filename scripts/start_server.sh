# Sourced by scripts/net_smoke.sh and scripts/bench_net_serve.sh: start a
# pqs_serve or pqs_router on 127.0.0.1:0 and read the port the kernel gave
# it from the `listening on host:port` banner both servers print to stderr
# (perfbench/run.py does the same). A fixed port could collide with another
# process or with the ephemeral range; port 0 cannot.
#
#   start_server <log-file> <binary> [flags...]
#
# Leaves the server's pid appended to the caller's `pids` array and its
# host:port in `listen_addr`. Fails, showing the log, when the server exits
# before its banner or prints none within 30 s.
start_server() {
  local log="$1"
  shift
  "$@" --listen 127.0.0.1:0 2>"${log}" &
  local pid=$!
  pids+=("${pid}")
  local tries=0
  listen_addr=""
  while [ -z "${listen_addr}" ]; do
    listen_addr="$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' \
      "${log}" | head -n 1)"
    [ -n "${listen_addr}" ] && break
    if ! kill -0 "${pid}" 2>/dev/null || [ "${tries}" -ge 3000 ]; then
      echo "$1 did not report a listening port:" >&2
      cat "${log}" >&2
      return 1
    fi
    tries=$((tries + 1))
    sleep 0.01
  done
}
