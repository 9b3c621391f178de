#!/usr/bin/env sh
# Hermetic CI gate: the whole workspace must build, test, and compile its
# bench targets with zero network/registry access (every dependency is
# in-tree). Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo doc --offline (warnings are errors)"
# Every intra-doc link must resolve and may name only public items, so a
# renamed or deleted item fails here instead of rotting in the docs.
# `--lib` leaves out the `rlr` binary, whose doc output would collide with
# the `rlr` library's.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --lib

echo "==> cargo clippy --offline (warnings are errors)"
# Default lint levels only; a warning anywhere in the workspace, tests and
# benches included, fails here.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo test -q --offline"
# Every suite runs here exactly once: the differential walls (seed, scan,
# dispatch, partition, timing, objcache), the golden hierarchy counters,
# the fault and crash-consistency walls, the cell-format fixtures, and the
# Table I pin (tests/experiments_smoke.rs renders Table I, including its
# MPPPB, Glider and Counter(AIP) storage formulas, byte for byte against
# the committed results/ CSV).
cargo test -q --offline --workspace

echo "==> benchmark contract and seed-0 digests"
# perfbench is a workspace of its own, so `--workspace` above does not
# reach it. Its contract test runs sim_1core and serving_tiers at seed 0
# under hostile RLR_* values and requires the pinned digests; one seed-0
# pass each of sim_4core_event, llc_replay and rl_train must match their
# digests too. A hot-path change that moves any simulated counter fails
# here; llc_replay's digests are the only ones that cover RLT1 decode
# (each cell streams its trace file block by block), and rl_train holds
# the DQN kernels this host dispatches to (AVX2 where it has it) to the
# pinned loss bits.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for WORKLOAD in sim_4core_event llc_replay rl_train; do
    RESULT="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$WORKLOAD" --seed 0 --seconds 1 --trace 0 | tail -n 1)"
    case "$RESULT" in
        *'"correct": true'*) ;;
        *) echo "ci.sh: $WORKLOAD seed-0 digests differ: $RESULT" >&2; exit 1 ;;
    esac
done

echo "==> cargo bench --no-run --offline"
cargo bench --no-run --offline --workspace

echo "==> bench smoke (paired ratio gates)"
# Four in-process ratios, each from 15 paired rounds that alternate which
# side runs first: seed/packed replay, scalar/lane victim scan,
# analytic/event timing, tenant/single replay. A gate fails only when at
# least 3/4 of its rounds are past baseline x tolerance (0.8 for the two
# speedups, 1.05 and 1.25 for the two cost ratios), with the baseline
# medians in crates/bench/ci_baseline.json. Ratios cancel machine speed,
# so this is stable across hosts where absolute accesses/sec are not.
cargo bench --offline -p rlr-bench --bench ci_smoke

echo "==> CLI resume smoke test"
# A Small-scale sweep interrupted by an injected crash, then re-run
# against the same checkpoint directory, must print exactly what an
# uninterrupted sweep prints — and the interrupted run must mark the
# crashed cell as failed instead of aborting.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
RLR="./target/release/rlr"
COMPARE="429.mcf --policies FIFO --instructions 2000000 --warmup 500000 --jobs 2"
RLR_RESULTS_DIR="$SMOKE_DIR/clean" "$RLR" compare $COMPARE \
    > "$SMOKE_DIR/clean.txt" 2>/dev/null
RLR_RESULTS_DIR="$SMOKE_DIR/resume" RLR_FAIL_PLAN="panic:1:*" RLR_RETRIES=0 \
    "$RLR" compare $COMPARE > "$SMOKE_DIR/interrupted.txt" 2>/dev/null
grep -q "failed" "$SMOKE_DIR/interrupted.txt" || {
    echo "ci.sh: injected crash was not reported as a failed cell" >&2; exit 1;
}
RLR_RESULTS_DIR="$SMOKE_DIR/resume" "$RLR" compare $COMPARE \
    > "$SMOKE_DIR/resumed.txt" 2>/dev/null
diff "$SMOKE_DIR/clean.txt" "$SMOKE_DIR/resumed.txt" || {
    echo "ci.sh: resumed sweep diverged from the uninterrupted run" >&2; exit 1;
}
# The same for the batched tenancy sweep: the crashed mode (cell 1) runs
# alone on the per-cell path and is reported failed, the other modes are
# checkpointed, and the resume computes only the missing mode. Each run
# names its own results directory on its `saved` line, so that line is
# left out of the comparison.
TEN_RESUME="tenancy compare --accesses 20000 --jobs 2"
RLR_RESULTS_DIR="$SMOKE_DIR/ten_clean" "$RLR" $TEN_RESUME 2>/dev/null \
    | grep -v '^saved ' > "$SMOKE_DIR/ten_clean.txt"
RLR_RESULTS_DIR="$SMOKE_DIR/ten_resume" RLR_FAIL_PLAN="panic:1:*" RLR_RETRIES=0 \
    "$RLR" $TEN_RESUME > "$SMOKE_DIR/ten_interrupted.txt" 2>/dev/null
grep -q "way-partition *FAILED" "$SMOKE_DIR/ten_interrupted.txt" || {
    echo "ci.sh: injected crash was not reported as a failed tenancy mode" >&2; exit 1;
}
RLR_RESULTS_DIR="$SMOKE_DIR/ten_resume" "$RLR" $TEN_RESUME 2>/dev/null \
    | grep -v '^saved ' > "$SMOKE_DIR/ten_resumed.txt"
diff "$SMOKE_DIR/ten_clean.txt" "$SMOKE_DIR/ten_resumed.txt" || {
    echo "ci.sh: resumed tenancy sweep diverged from the uninterrupted run" >&2; exit 1;
}

echo "==> I/O-fault CLI smoke test"
# A torn checkpoint store mid-sweep is benign: the sweep's stdout matches
# the clean run exactly (the cell is recomputed, not read back), and the
# resumed run against the surviving checkpoints still matches.
RLR_RESULTS_DIR="$SMOKE_DIR/torn" RLR_FAIL_PLAN="torn:40" \
    "$RLR" compare $COMPARE > "$SMOKE_DIR/torn.txt" 2>/dev/null
diff "$SMOKE_DIR/clean.txt" "$SMOKE_DIR/torn.txt" || {
    echo "ci.sh: a torn checkpoint store changed the sweep's output" >&2; exit 1;
}
RLR_RESULTS_DIR="$SMOKE_DIR/torn" "$RLR" compare $COMPARE \
    > "$SMOKE_DIR/torn_resumed.txt" 2>/dev/null
diff "$SMOKE_DIR/clean.txt" "$SMOKE_DIR/torn_resumed.txt" || {
    echo "ci.sh: resume after a torn store diverged from the clean run" >&2; exit 1;
}
# A bit flip injected into a container capture must fail verification,
# and --repair must salvage the intact blocks into a container that then
# verifies (the damaged original is kept as evidence).
RLR_FAIL_PLAN="flip:100" "$RLR" trace capture 429.mcf \
    --out "$SMOKE_DIR/flipped.rlt" --records 4096 --block 256 > /dev/null 2>&1
if "$RLR" trace verify "$SMOKE_DIR/flipped.rlt" > /dev/null 2>&1; then
    echo "ci.sh: flipped container unexpectedly passed verification" >&2; exit 1;
fi
"$RLR" trace verify "$SMOKE_DIR/flipped.rlt" --repair > /dev/null || {
    echo "ci.sh: salvage of the flipped container failed" >&2; exit 1;
}
"$RLR" trace verify "$SMOKE_DIR/flipped.rlt" > /dev/null || {
    echo "ci.sh: repaired container failed verification" >&2; exit 1;
}
test -f "$SMOKE_DIR/flipped.rlt.damaged" || {
    echo "ci.sh: in-place repair did not keep the damaged original" >&2; exit 1;
}
# Doctor: a results tree holding the damaged container is repaired in one
# pass, and a second pass finds it clean.
mkdir -p "$SMOKE_DIR/doc/corpus"
cp "$SMOKE_DIR/flipped.rlt.damaged" "$SMOKE_DIR/doc/corpus/flipped_small.rlt"
RLR_RESULTS_DIR="$SMOKE_DIR/doc" "$RLR" doctor > "$SMOKE_DIR/doctor.txt"
grep -q "1 repaired" "$SMOKE_DIR/doctor.txt" || {
    echo "ci.sh: doctor did not repair the damaged container" >&2; exit 1;
}
RLR_RESULTS_DIR="$SMOKE_DIR/doc" "$RLR" doctor | grep -q "is clean" || {
    echo "ci.sh: doctor left the tree dirty after repairing it" >&2; exit 1;
}

echo "==> kill-resume smoke test"
# SIGKILL a sweep mid-flight (no clean shutdown at all), run doctor over
# the survivors, resume against the same checkpoint directory: the output
# must be byte-identical to the uninterrupted run. If the machine is fast
# enough that the sweep finishes before the kill lands, the check still
# holds (resume then just replays complete checkpoints).
RLR_RESULTS_DIR="$SMOKE_DIR/kill" "$RLR" compare $COMPARE \
    > /dev/null 2>&1 &
KILL_PID=$!
sleep 0.4
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
RLR_RESULTS_DIR="$SMOKE_DIR/kill" "$RLR" doctor > /dev/null
RLR_RESULTS_DIR="$SMOKE_DIR/kill" "$RLR" compare $COMPARE \
    > "$SMOKE_DIR/kill_resumed.txt" 2>/dev/null
diff "$SMOKE_DIR/clean.txt" "$SMOKE_DIR/kill_resumed.txt" || {
    echo "ci.sh: resume after SIGKILL diverged from the uninterrupted run" >&2
    exit 1
}

echo "==> training resume smoke test"
# An agent trained straight through and one stopped after its first epoch,
# then resumed from the checkpoint, must save byte-identical networks: the
# checkpoint carries weights, momentum, RNG streams and replay memory
# through `save_full`/`load_full`. 36k records is about the least that
# overflows the 2 MiB LLC of 429.mcf's run, so both epochs make victim
# decisions and network updates; a shorter capture is all cold misses.
TRAIN="train 429.mcf --records 36000 --epochs 2"
"$RLR" $TRAIN --out "$SMOKE_DIR/a.mlp" > "$SMOKE_DIR/train_a.txt"
grep -q "epoch 1: .*TD loss [0-9.]*[1-9]" "$SMOKE_DIR/train_a.txt" || {
    echo "ci.sh: the training smoke made no network updates" >&2; exit 1;
}
"$RLR" $TRAIN --out "$SMOKE_DIR/b.mlp" --stop-after 1 > /dev/null
test ! -e "$SMOKE_DIR/b.mlp" || {
    echo "ci.sh: --stop-after 1 saved a finished network" >&2; exit 1;
}
"$RLR" $TRAIN --out "$SMOKE_DIR/b.mlp" --resume > /dev/null
cmp "$SMOKE_DIR/a.mlp" "$SMOKE_DIR/b.mlp" || {
    echo "ci.sh: resumed training diverged from the uninterrupted run" >&2; exit 1;
}

echo "==> event-timing CLI smoke test"
# The --timing selector must reach the simulator (mode echoed in the
# report) and event-mode runs must be bit-reproducible end to end.
"$RLR" run 429.mcf --instructions 200000 --warmup 50000 --timing event \
    > "$SMOKE_DIR/event1.txt"
grep -q "timing       event" "$SMOKE_DIR/event1.txt" || {
    echo "ci.sh: --timing event did not select the event core" >&2; exit 1;
}
"$RLR" run 429.mcf --instructions 200000 --warmup 50000 --timing event \
    > "$SMOKE_DIR/event2.txt"
diff "$SMOKE_DIR/event1.txt" "$SMOKE_DIR/event2.txt" || {
    echo "ci.sh: event-mode run is not deterministic" >&2; exit 1;
}

echo "==> trace container smoke test"
# `rlr trace capture` counts its record quota from the end of warm-up: it
# must write every record asked for, and the container it writes must
# verify. Also checks the committed golden fixture still verifies.
"$RLR" trace capture 429.mcf --out "$SMOKE_DIR/mcf100k.rlt" --records 100000 \
    > "$SMOKE_DIR/capture100k.txt"
grep -q "^captured 100000 LLC records" "$SMOKE_DIR/capture100k.txt" || {
    echo "ci.sh: rlr trace capture wrote short: $(cat "$SMOKE_DIR/capture100k.txt")" >&2
    exit 1
}
"$RLR" trace verify "$SMOKE_DIR/mcf100k.rlt" || {
    echo "ci.sh: captured container failed verification" >&2; exit 1;
}
"$RLR" trace verify crates/trace-io/tests/data/golden_429mcf.rlt || {
    echo "ci.sh: committed golden fixture failed verification" >&2; exit 1;
}
# Streamed replay decodes one block ahead on a helper thread, or inline
# when the process may use one CPU only; both paths must print the same.
"$RLR" replay "$SMOKE_DIR/mcf100k.rlt" --policy RLR > "$SMOKE_DIR/replay_ahead.txt"
taskset -c 0 "$RLR" replay "$SMOKE_DIR/mcf100k.rlt" --policy RLR \
    > "$SMOKE_DIR/replay_inline.txt"
diff "$SMOKE_DIR/replay_ahead.txt" "$SMOKE_DIR/replay_inline.txt" || {
    echo "ci.sh: inline and decode-ahead replays differ" >&2; exit 1;
}

echo "==> object-cache CLI smoke test"
# The serving-tier comparison on a short Zipf + flash-crowd trace: all
# four roster policies report, the derived rule beats plain LRU on
# miss-byte ratio (the acceptance headline), and a re-run against the
# same checkpoint directory reproduces the table byte-for-byte from
# cached cells.
OBJ="objcache compare --requests 40000 --capacity-mib 64 --jobs 2"
RLR_RESULTS_DIR="$SMOKE_DIR/obj" "$RLR" $OBJ > "$SMOKE_DIR/obj.txt" 2>/dev/null
for policy in LRU SLRU GDSF RLR-derived; do
    grep -q "$policy" "$SMOKE_DIR/obj.txt" || {
        echo "ci.sh: objcache compare is missing the $policy row" >&2; exit 1;
    }
done
grep -q "derived-RLR beats LRU" "$SMOKE_DIR/obj.txt" || {
    echo "ci.sh: derived rule no longer beats plain LRU on the smoke trace" >&2
    exit 1
}
RLR_RESULTS_DIR="$SMOKE_DIR/obj" "$RLR" $OBJ > "$SMOKE_DIR/obj2.txt" 2>/dev/null
diff "$SMOKE_DIR/obj.txt" "$SMOKE_DIR/obj2.txt" || {
    echo "ci.sh: checkpointed objcache compare re-run diverged" >&2; exit 1;
}

echo "==> multi-tenant CLI smoke test"
# The 3-tenant serving-tier comparison on the pinned default mix: all
# three isolation modes report, the learned table beats shared sharing on
# weighted demand miss rate (the acceptance headline), and a re-run
# against the same checkpoint directory reproduces the table byte-for-byte
# from cached cells.
TEN="tenancy compare --accesses 60000 --jobs 2"
RLR_RESULTS_DIR="$SMOKE_DIR/ten" "$RLR" $TEN > "$SMOKE_DIR/ten.txt" 2>/dev/null
for mode in shared way-partition learned-priority; do
    grep -q "$mode" "$SMOKE_DIR/ten.txt" || {
        echo "ci.sh: tenancy compare is missing the $mode rows" >&2; exit 1;
    }
done
grep -q "learned-priority beats shared" "$SMOKE_DIR/ten.txt" || {
    echo "ci.sh: learned table no longer beats shared on the default mix" >&2
    exit 1
}
RLR_RESULTS_DIR="$SMOKE_DIR/ten" "$RLR" $TEN > "$SMOKE_DIR/ten2.txt" 2>/dev/null
diff "$SMOKE_DIR/ten.txt" "$SMOKE_DIR/ten2.txt" || {
    echo "ci.sh: checkpointed tenancy compare re-run diverged" >&2; exit 1;
}

echo "==> ci.sh: all gates passed"
