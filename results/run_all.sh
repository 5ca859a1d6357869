#!/bin/bash
# Regenerate every table and figure; outputs land in results/.
cd "$(dirname "$0")/.." || exit 1
export RDM_EPOCHS=${RDM_EPOCHS:-3}
for bin in table4 table6 table10 fig12 ablations table9 fig8_11 table7 table8; do
  echo "=== running $bin ==="
  cargo run --release -p rdm-bench --bin $bin > results/$bin.txt 2>results/$bin.err
  echo "=== $bin done (exit $?) ==="
done
# Fig 13 needs enough epochs for the convergence curves to be meaningful.
echo "=== running fig13 ==="
RDM_EPOCHS=15 cargo run --release -p rdm-bench --bin fig13 > results/fig13.txt 2>results/fig13.err
echo "=== fig13 done (exit $?) ==="
