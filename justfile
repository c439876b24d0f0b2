# `just ci` = the full tier-1 gate; individual recipes for local loops.

# Everything CI checks, in order.
ci: build test fmt clippy trace-smoke sweep-smoke structural-smoke sweep-fault-smoke sweep-workers-smoke sweep-tcp-smoke serve-smoke events-smoke soa-equiv perf-floor

# Release build (the tier-1 compile gate), all members and binaries.
build:
    cargo build --release --workspace

# The whole test suite, quietly.
test:
    cargo test -q --workspace

# Formatting is enforced, not suggested.
fmt:
    cargo fmt --check

# Lints are errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# One traced synthesis; fails if the Chrome trace is missing a stage span.
trace-smoke: build
    ./target/release/hlstb synth diffeq --strategy behavioral-partial-scan \
        --grade 128 --atpg --trace trace_smoke.json --trace-summary
    ./target/release/hlstb trace-check trace_smoke.json \
        sched bind expand netlist.build scan.select bist.plan atpg fsim.grade
    rm -f trace_smoke.json

# Tiny two-design sweep: serial/parallel outputs must be byte-identical
# and the cached run must post nonzero cache hits.
sweep-smoke: build
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 1 --no-cache --json >sweep_serial.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 4 --cache --json >sweep_parallel.json 2>sweep_summary.txt
    cmp sweep_serial.json sweep_parallel.json
    grep "cache hits:" sweep_summary.txt
    ! grep -q "cache hits: 0," sweep_summary.txt
    rm -f sweep_serial.json sweep_parallel.json sweep_summary.txt

# Ungraded sweep over every scheduler, register policy and strategy
# (the axes whose front ends and DFT stages run MFVS): serial uncached
# and threaded cached reports must be byte-identical.
structural-smoke: build
    ./target/release/hlstb sweep --designs figure1,diffeq \
        --schedulers list,io-aware,asap,force-directed=1 \
        --policies left-edge,dsatur,io-max,boundary,loop-avoiding,avra \
        --widths 4,8 --threads 1 --no-cache --json >structural_serial.json
    ./target/release/hlstb sweep --designs figure1,diffeq \
        --schedulers list,io-aware,asap,force-directed=1 \
        --policies left-edge,dsatur,io-max,boundary,loop-avoiding,avra \
        --widths 4,8 --threads 2 --cache --json >structural_parallel.json
    cmp structural_serial.json structural_parallel.json
    rm -f structural_serial.json structural_parallel.json

# Robustness smoke: inject failures into 2 of 6 points (the other 4
# must complete with typed error records, byte-identically across
# serial/parallel), then kill a checkpointed sweep after 3 points and
# resume it — the resumed report must match the uninterrupted one.
sweep-fault-smoke: build
    HLSTB_FAIL_POINT="panic:1;stall:3" ./target/release/hlstb sweep \
        --designs figure1,tseng --strategies none,full-scan,bist-shared \
        --grade 64 --threads 1 --no-cache --json \
        >fault_serial.json 2>fault_summary.txt
    HLSTB_FAIL_POINT="panic:1;stall:3" ./target/release/hlstb sweep \
        --designs figure1,tseng --strategies none,full-scan,bist-shared \
        --grade 64 --threads 4 --cache --json >fault_parallel.json
    cmp fault_serial.json fault_parallel.json
    grep "sweep: 6 points (2 errors \[panic: 1, timeout: 1\])" fault_summary.txt
    grep -q '"kind": "panic"' fault_serial.json
    grep -q '"kind": "timeout"' fault_serial.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --json >resume_baseline.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --checkpoint resume_ckpt.jsonl --json >/dev/null
    head -3 resume_ckpt.jsonl >resume_ckpt_cut.jsonl
    mv resume_ckpt_cut.jsonl resume_ckpt.jsonl
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --checkpoint resume_ckpt.jsonl --resume --json \
        >resume_resumed.json 2>resume_summary.txt
    cmp resume_baseline.json resume_resumed.json
    grep "3 restored" resume_summary.txt
    rm -f fault_serial.json fault_parallel.json fault_summary.txt \
        resume_baseline.json resume_ckpt.jsonl resume_resumed.json resume_summary.txt

# Scale-out smoke: `--workers 4` must splice byte-identically to the
# serial uncached run; a worker killed mid-lease (HLSTB_WORKER_FAIL)
# must re-issue and still reproduce the bytes; and a contended threaded
# cached sweep must post nonzero coalesced (single-flight) waits.
sweep-workers-smoke: build
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --threads 1 --no-cache --json >workers_serial.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --workers 4 --json >workers_sharded.json 2>workers_summary.txt
    cmp workers_serial.json workers_sharded.json
    grep "4 workers" workers_summary.txt
    HLSTB_WORKER_FAIL="0:1" ./target/release/hlstb sweep \
        --designs figure1,tseng --strategies none,full-scan,bist-shared \
        --grade 64 --workers 1 --json \
        >workers_killed.json 2>workers_killed_summary.txt
    cmp workers_serial.json workers_killed.json
    grep "re-issuing" workers_killed_summary.txt
    HLSTB_FAIL_POINT="io:1" ./target/release/hlstb sweep \
        --designs figure1,tseng --strategies none,full-scan,bist-shared \
        --grade 64 --workers 2 --checkpoint workers_io_ckpt.jsonl --json \
        >workers_io.json 2>workers_io_summary.txt
    cmp workers_serial.json workers_io.json
    grep "continuing without checkpointing" workers_io_summary.txt
    ./target/release/hlstb sweep --designs figure1,tseng \
        --grade 128,512,1024 --threads 8 --cache \
        >/dev/null 2>coalesce_summary.txt
    grep "coalesced:" coalesce_summary.txt
    ! grep -q "coalesced: 0 (" coalesce_summary.txt
    rm -f workers_serial.json workers_sharded.json workers_summary.txt \
        workers_killed.json workers_killed_summary.txt coalesce_summary.txt \
        workers_io.json workers_io_summary.txt workers_io_ckpt.jsonl

# TCP transport smoke: serve the tiny sweep over `--listen` to four
# dialed-in worker processes (byte-identical to serial uncached), then
# kill a TCP worker mid-lease and check the re-issued lease lands on a
# later-dialing replacement with the bytes still identical.
sweep-tcp-smoke: build
    #!/usr/bin/env sh
    set -eu
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --threads 1 --no-cache --json >tcp_serial.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --listen 127.0.0.1:0 --json >tcp_sharded.json 2>tcp_summary.txt &
    tcp_coord=$!
    tcp_addr=""
    for _ in $(seq 50); do
        tcp_addr=$(sed -n 's/^sweep: listening on //p' tcp_summary.txt | head -1)
        if [ -n "$tcp_addr" ]; then break; fi
        sleep 0.1
    done
    test -n "$tcp_addr"
    for _ in 1 2 3 4; do
        ./target/release/hlstb sweep-worker --connect "$tcp_addr" &
    done
    wait $tcp_coord
    cmp tcp_serial.json tcp_sharded.json
    grep "4 workers" tcp_summary.txt
    wait || true
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --listen 127.0.0.1:0 --json >tcp_killed.json 2>tcp_killed_summary.txt &
    tcp_coord=$!
    tcp_addr=""
    for _ in $(seq 50); do
        tcp_addr=$(sed -n 's/^sweep: listening on //p' tcp_killed_summary.txt | head -1)
        if [ -n "$tcp_addr" ]; then break; fi
        sleep 0.1
    done
    test -n "$tcp_addr"
    HLSTB_WORKER_FAIL="0:1" ./target/release/hlstb sweep-worker \
        --connect "$tcp_addr" || true
    ./target/release/hlstb sweep-worker --connect "$tcp_addr"
    wait $tcp_coord
    cmp tcp_serial.json tcp_killed.json
    grep "re-issuing" tcp_killed_summary.txt
    ! grep -q " 0 reissued," tcp_killed_summary.txt
    rm -f tcp_serial.json tcp_sharded.json tcp_summary.txt \
        tcp_killed.json tcp_killed_summary.txt

# Serve smoke: one persistent daemon answers four concurrent identical
# sweep requests byte-identically (and identically to a local sweep)
# with nonzero cross-request cache hits, drains cleanly on SIGTERM, and
# replays a kill-9'd journal byte-identically on restart.
serve-smoke: build
    #!/usr/bin/env sh
    set -eu
    rm -f serve_journal.jsonl serve_crash_journal.jsonl
    ./target/release/hlstb serve --listen 127.0.0.1:0 \
        --journal serve_journal.jsonl 2>serve_log.txt &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 50); do
        serve_addr=$(sed -n 's/^serve: listening on //p' serve_log.txt | head -1)
        if [ -n "$serve_addr" ]; then break; fi
        sleep 0.1
    done
    test -n "$serve_addr"
    client_pids=""
    for i in 1 2 3 4; do
        ./target/release/hlstb serve-client --connect "$serve_addr" \
            --id "smoke-$i" --designs figure1,tseng \
            --strategies none,full-scan,bist-shared --grade 64 \
            >"serve_out_$i.json" 2>/dev/null &
        client_pids="$client_pids $!"
    done
    for p in $client_pids; do wait "$p"; done
    cmp serve_out_1.json serve_out_2.json
    cmp serve_out_1.json serve_out_3.json
    cmp serve_out_1.json serve_out_4.json
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 \
        --json >serve_local.json
    cmp serve_out_1.json serve_local.json
    ./target/release/hlstb serve-client --connect "$serve_addr" --metrics \
        >serve_metrics.json
    grep -q '"cache_hits"' serve_metrics.json
    ! grep -q '"cache_hits": 0,' serve_metrics.json
    grep -q '"completed": 4,' serve_metrics.json
    kill -TERM $serve_pid
    wait $serve_pid
    grep "drained cleanly" serve_log.txt
    HLSTB_SERVE_FAIL="abort-after-accept:smoke-1" ./target/release/hlstb serve \
        --listen 127.0.0.1:0 --journal serve_crash_journal.jsonl \
        2>serve_crash_log.txt &
    serve_pid=$!
    serve_addr=""
    for _ in $(seq 50); do
        serve_addr=$(sed -n 's/^serve: listening on //p' serve_crash_log.txt | head -1)
        if [ -n "$serve_addr" ]; then break; fi
        sleep 0.1
    done
    test -n "$serve_addr"
    ! ./target/release/hlstb serve-client --connect "$serve_addr" \
        --id smoke-1 --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 64 >/dev/null 2>&1
    wait $serve_pid || true
    grep -q '"kind": "accepted"' serve_crash_journal.jsonl
    ! grep -q '"kind": "completed"' serve_crash_journal.jsonl
    ./target/release/hlstb serve --journal serve_crash_journal.jsonl --replay-only
    grep '"kind": "completed"' serve_crash_journal.jsonl >serve_replayed.line
    grep '"id": "smoke-1"' serve_journal.jsonl \
        | grep '"kind": "completed"' >serve_baseline.line
    cmp serve_replayed.line serve_baseline.line
    rm -f serve_journal.jsonl serve_crash_journal.jsonl serve_log.txt \
        serve_crash_log.txt serve_out_1.json serve_out_2.json \
        serve_out_3.json serve_out_4.json serve_local.json \
        serve_metrics.json serve_replayed.line serve_baseline.line

# Events smoke: journal the tiny sweep at 1 thread uncached and 4
# threads cached; the canonical projections must be byte-identical and
# the full journal must roll up through trace-view.
events-smoke: build
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 1 --no-cache \
        --events events_t1.jsonl --events-canonical events_t1_canon.jsonl \
        >/dev/null
    ./target/release/hlstb sweep --designs figure1,tseng \
        --strategies none,full-scan,bist-shared --grade 128 \
        --threads 4 --cache \
        --events events_t4.jsonl --events-canonical events_t4_canon.jsonl \
        >/dev/null
    cmp events_t1_canon.jsonl events_t4_canon.jsonl
    ./target/release/hlstb trace-view events_t4.jsonl >events_view.txt
    grep "6 points" events_view.txt
    grep "point.completed" events_view.txt
    rm -f events_t1.jsonl events_t1_canon.jsonl events_t4.jsonl \
        events_t4_canon.jsonl events_view.txt

# SoA engine differential smoke: identical detected sets vs the
# reference engine at every word width on two designs.
soa-equiv: build
    ./target/release/hlstb soa-check figure1 tseng

# The committed BENCH artifacts' headline metrics must stay at or above
# their own `floors` objects. Reads the checked-in JSON, not a fresh
# timing run; refresh with `just bench` after deliberate engine work.
perf-floor: build
    ./target/release/hlstb perf-diff --floor BENCH_fsim.json BENCH_dse.json

# Regenerate every experiment table (EXPERIMENTS.md source of truth).
exp-all:
    cargo run --release -p hlstb-bench --bin exp_all

# Time the grading engine and refresh BENCH_fsim.json.
bench-fsim patterns="1024":
    cargo run --release -p hlstb-bench --bin exp_fsim -- {{patterns}}

# Time the DSE engine on the full scoreboard sweep (in-process configs
# plus one sharded over worker processes); refresh BENCH_dse.json.
bench-dse threads="4" workers="4":
    cargo run --release -p hlstb-bench --bin exp_dse -- {{threads}} {{workers}}

# Refresh every tracked benchmark artifact.
bench: bench-fsim bench-dse
