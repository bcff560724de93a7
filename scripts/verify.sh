#!/usr/bin/env sh
# Repo verification gate: formatting, vet, full build, full tests, every
# benchmark and example run once, and a race pass over the concurrency-heavy packages (the distributed runtime,
# the session server, and the packages whose state the sessions of one net
# share: the per-net template and what it is cloned from). CI and
# pre-commit both run this.
#
# Deterministic steps stop the script where they fail (set -e). The
# tracing-overhead and checkpoint-overhead guards close the run, each
# comparing two measurements taken in one process: the no-op tracer
# against a full trace (bound 1.5x) and a served session's allocation
# against an untraced one (bound 1.2x), then checkpoint restore against
# replay (restore must be cheaper). All always run; a red one is printed
# again at the end and makes the exit status non-zero. Serving performance is measured by
# bench/ against BENCHMARK.json in alternating parent/change pairs, not
# here.
set -eu

red="" # the guards that went red, one per line

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/serve ./internal/dist ./internal/transport ./internal/wire ./internal/snapshot ./internal/wal ./internal/obs ./internal/repl ./internal/pool ./internal/ddatalog ./internal/rel ./internal/dqsq ./internal/datalog ./internal/diagnosis ./internal/core ./internal/term"
go test -race ./internal/serve ./internal/dist ./internal/transport ./internal/wire ./internal/snapshot ./internal/wal ./internal/obs ./internal/repl ./internal/pool ./internal/ddatalog ./internal/rel ./internal/dqsq ./internal/datalog ./internal/diagnosis ./internal/core ./internal/term

echo "== benchmarks, one iteration each"
# Plain `go test` compiles the benchmarks but runs none of them; a broken
# one would otherwise show only when someone times it.
go test -run '^$' -bench . -benchtime 1x ./...

echo "== examples"
# Each example must run to completion and exit 0 (examples/online reads
# the diagnoses off the engine's answers itself).
for example in ./examples/*/; do
    echo "-- $example"
    go run "$example" >/dev/null
done

echo "== bench module (nested: tier-1 does not compile it)"
# Deterministic, so it runs before the smokes and timing guards: a
# box-dependent ratio going red must not hide a broken nested module.
# bench/ pins surface by name; these signatures must not change without
# a bench/ change of their own. Engine: OnlineDiagnoser.SetParallelism (a
# no-op since evaluation went sequential; bench/ still calls it) and
# .Session, OnlineSession.Engine, Engine.Peers/PeerDB/PeerStore,
# rel.Relation.All/InsertPos/Scan, Store.ExternalizeTuple/InternalizeTuple,
# wire.AppendFrame/DecodeFrame. Serving: serve.NewServer and
# serve.Config{EvalTimeout,SweepEvery}, serve.NewStore/StoreConfig,
# serve.NewPoolBackend and PoolBackend.Create/Append; pool.New and
# pool.Config{Transport,Workers}, pool.NewWorker and
# pool.WorkerConfig{Transport,Backend}, Pool.Create/Append and
# pool.Result; transport.NewMesh; wal.Open, wal.Options{Fsync},
# wal.SyncAlways/SyncNever; obs.Tracer/Span/Multi.
(cd bench && go vet ./... && go test ./...)

echo "== wire codec fuzz smoke"
# The seed corpus runs under plain `go test` above; this also gives the
# mutator a moment on each target to shake out decoder panics.
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 3s ./internal/wire
go test -run '^$' -fuzz '^FuzzFrameRoundTrip$' -fuzztime 3s ./internal/wire

echo "== snapshot codec fuzz smoke"
# Same deal for the checkpoint container and the one CRC frame every
# persisted or shipped stream is cut into (WAL records — checkpoints
# included — snapshot sections, TCP transport messages, replication's
# ReplPull/ReplBatch among them, whose bodies the wire fuzz smoke above
# covers): corrupt or truncated input
# must error, never panic or over-allocate, and the slice and stream
# frame readers must agree.
go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 3s ./internal/snapshot
go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 3s ./internal/snapshot
go test -run '^$' -fuzz '^FuzzFrame$' -fuzztime 3s ./internal/snapshot

echo "== wal fuzz smoke"
# And for the write-ahead log: arbitrary segment bytes and multi-segment
# directories must replay a valid prefix or error — never panic.
go test -run '^$' -fuzz '^FuzzSegment$' -fuzztime 3s ./internal/wal
go test -run '^$' -fuzz '^FuzzReplay$' -fuzztime 3s ./internal/wal

echo "== multi-process smoke"
# Two peerd daemons on ephemeral ports, diagnosed against from a separate
# diagnose process; output must match the single-process run exactly.
go test -run '^TestMultiProcessSmoke$' -count 1 ./cmd/diagnose

echo "== cluster trace smoke (peerd admin endpoints + merged timeline)"
# Two peerd daemons with -admin endpoints, one traced multi-process
# diagnosis: /healthz must report ready, each /metrics must carry engine
# counters plus Go runtime gauges, and the merged trace file must contain
# spans from all three processes.
go test -run '^TestClusterTraceSmoke$' -count 1 ./cmd/diagnose

echo "== restart smoke (stateless peerd member, CLI checkpoint dir)"
# A peerd member SIGKILLed idle and mid-round and restarted with nothing
# on disk: every evaluation must match a single-process run exactly, and
# the mid-round one must end by a retry inside its timeout. Then the CLI
# checkpoint dir: -resume must continue the logged session byte-equal to
# an uninterrupted run, refuse what it cannot honour untouched, and
# report a torn tail and the replayed records on stderr.
go test -run '^(TestPeerdKillRestore|TestDiagnoseCheckpointResume|TestDiagnoseWALResume)$' -count 1 ./cmd/diagnose

echo "== checkpoint-record smoke (checkpoint in the WAL, kill -9, restart, re-query)"
# Stream alarms into a diagnosed session until /metrics shows a
# checkpoint record landed in the WAL, append once more past it, SIGKILL
# the server, restart it on the same address and data dir, and finish
# the sequence; the final report must match an uninterrupted run
# exactly, and the data dir must hold only wal/, after the kill and after
# a graceful drain.
go test -run '^TestDiagnosedRestartSmoke$' -count 1 ./cmd/diagnosed

echo "== WAL round-trip smoke (kill -9 mid-append, before any checkpoint)"
# Same drill before any checkpoint record: every acknowledged append
# survives as its own record, and the restarted session's next report
# matches an uninterrupted run exactly.
go test -run '^TestDiagnosedWALKillSmoke$' -count 1 ./cmd/diagnosed

echo "== replication failover smoke (kill -9 the primary, promote the follower)"
# A primary streams two live sessions to a follower, dies by SIGKILL
# mid-stream, and the follower is promoted via POST /v1/admin/promote:
# zero acknowledged appends may be lost, the promoted node's diagnoses
# must match an uninterrupted single-process run exactly, and writes
# must flow again under the bumped fencing epoch.
go test -run '^TestDiagnosedFailoverSmoke$' -count 1 ./cmd/diagnosed

echo "== session-pool smoke (kill -9 a worker mid-stream, drain another; kill -9 the frontend)"
# A diagnosed frontend schedules sessions across three peerd workers; one
# worker dies by SIGKILL and another drains via SIGTERM mid-stream (the
# frontend learns of the drain from the worker's ping reply). Every
# session must migrate (one job carrying its records from the frontend's
# log, from its latest checkpoint record onward) and finish with
# diagnoses identical to an in-process run, and fresh creates must still
# land on the survivors.
go test -run '^TestPoolWorkerKillMigration$' -count 1 ./cmd/diagnosed
# A frontend on a data dir dies by SIGKILL and restarts on it with the
# same two workers: sessions past a checkpoint record, without one,
# poisoned and deleted must all read as on an uninterrupted local server.
go test -run '^TestPoolFrontendRestart$' -count 1 ./cmd/diagnosed

echo "== tracing-overhead guard"
# Both directions. The no-op tracer is what every untraced run pays, so
# it must never cost more than a run that records a full Chrome trace.
# Compare the two quickstart benchmarks with a generous noise margin (the
# zero-alloc tests in internal/obs pin the per-call cost; this catches
# gross leaks of instrumentation work onto the disabled path). And the
# traced path is what every served session pays: a pipeline session's
# flight recorder and metrics may add at most 0.2x to what its appends
# allocate untraced.
bench_out=$(go test -run '^$' -bench 'BenchmarkQuickstartDiagnosis' -benchtime 5x .)
echo "$bench_out"
echo "$bench_out" | awk '
    /BenchmarkQuickstartDiagnosis\/TracerOff/ { off = $3 }
    /BenchmarkQuickstartDiagnosis\/TracerOn/  { on  = $3 }
    END {
        if (off == "" || on == "") { print "guard: benchmarks missing" > "/dev/stderr"; exit 1 }
        if (off > 1.5 * on) {
            printf "guard: no-op tracer path (%s ns/op) is >1.5x the traced path (%s ns/op)\n", off, on > "/dev/stderr"
            exit 1
        }
        printf "guard: ok (off %s ns/op, on %s ns/op)\n", off, on
    }' || red="$red
  tracing-overhead"
go test -run '^TestServedSessionAllocations$' -count 1 -v ./internal/serve || red="$red
  served-session allocation"

echo "== checkpoint-overhead guard"
# Restoring a checkpoint must be cheaper than replaying the sequence it
# replaces (a clone of the cached template plus the snapshot's tail, not
# O(re-running N appends)), and the restored session must be equivalent to
# the uninterrupted one. On a 2-vCPU guest the medians of 8 runs read
# restore 1.6 ms vs replay 10.9 ms at 8 appends (3.7-10.9x per run), so a
# direct comparison has plenty of noise margin.
snap_out=$(go run ./cmd/benchreport -exp snapshot_overhead -max 8)
echo "$snap_out"
echo "$snap_out" | awk -F'|' '
    NF >= 9 && $2 + 0 == 8 {
        found = 1
        restore = $7 + 0; replay = $8 + 0; equal = $9
        gsub(/ /, "", equal)
        if (equal != "true") { print "guard: restored session diverged from the uninterrupted run" > "/dev/stderr"; exit 1 }
        if (restore <= 0 || replay <= 0) { print "guard: missing timings" > "/dev/stderr"; exit 1 }
        if (restore >= replay) {
            printf "guard: restore (%d ns) is not cheaper than replaying the appends (%d ns)\n", restore, replay > "/dev/stderr"
            exit 1
        }
        printf "guard: ok (restore %d ns vs replay %d ns, snapshot %d bytes)\n", restore, replay, $6 + 0
    }
    END { if (!found) { print "guard: snapshot_overhead row missing" > "/dev/stderr"; exit 1 } }' || red="$red
  checkpoint-overhead"

if [ -n "$red" ]; then
    echo "verify: red guards:$red" >&2
    exit 1
fi
echo "verify: OK"
