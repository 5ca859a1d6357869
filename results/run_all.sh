#!/bin/bash
# Regenerate every table and figure; outputs land in results/.
# `run_all.sh cli` regenerates only the two binaries' goldens
# (results/cli_*.txt), which CI checks with `git diff --exit-code`.
cd "$(dirname "$0")/.." || exit 1
export RDM_EPOCHS=${RDM_EPOCHS:-3}

# Both binaries' modeled output: pipelined training, a pipelined Zipf
# session, and a session whose requested pipeline is inert at r_a = 1.
# Reference kernels keep the `kernels:` line host-independent.
cli() {
  local out=$1 bin=$2
  shift 2
  cargo run --locked --release --quiet --bin "$bin" -- "$@" --reference-kernels > "results/$out.txt"
}
cli cli_train_overlap rdm-train --synthetic 4000x32000 --features 64 --classes 8 \
  --hidden 64 --ranks 4 --epochs 3 --algo rdm:15 --overlap 3
cli cli_serve_pipelined_zipf rdm-serve --synthetic 256x2000 --features 16 --classes 4 \
  --hidden 16 --requests 64 --pipeline 3 --zipf 5 --quiet
cli cli_serve_inert_pipeline rdm-serve --synthetic 8000x64000 --features 64 --classes 8 \
  --hidden 64 --requests 256 --mean-gap 1 --ranks 4 --ra 1 --train-epochs 1 --pipeline 3 --quiet
[ "$1" = cli ] && exit 0

for bin in table4 table6 table10 fig12 ablations table9 fig8_11 table7 table8; do
  echo "=== running $bin ==="
  cargo run --release -p rdm-bench --bin $bin > results/$bin.txt 2>results/$bin.err
  echo "=== $bin done (exit $?) ==="
done
# Fig 13 needs enough epochs for the convergence curves to be meaningful.
echo "=== running fig13 ==="
RDM_EPOCHS=15 cargo run --release -p rdm-bench --bin fig13 > results/fig13.txt 2>results/fig13.err
echo "=== fig13 done (exit $?) ==="
