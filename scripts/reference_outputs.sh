#!/usr/bin/env bash
# Write the CLI outputs that a refactor must leave byte-identical into OUTDIR.
#
#     PYTHONPATH=src scripts/reference_outputs.sh OUTDIR
#
# coexsim is imported from PYTHONPATH (or from an installed package), so the
# same script runs against any checkout's src: run it once per tree, then
# `diff -r` the two directories.  Run twice against one tree, it checks that
# fixed-seed reruns are byte-identical.
#
# OUTDIR gets, with cp in {0, 1/8, 7/16} written as cp0, cp1_8, cp7_16:
#   table_<dir>_<cp>.csv               s2i and i2s over l = -50 .. 50, step 0.01
#   table_4097_<dir>.csv               s2i and i2s over l = 0 .. 4096, step 1, at cp 1/8
#                                      (crosses the CSV chunk and the closed-form block)
#   simulate_<dir>_<cp>_df<f>_n<N>.csv s2i, i2s and o2o at delta_f 0 and 0.3 and
#                                      N = 17, 2000, 2113 and 10000 windows (slots)
#   verify_<cp>.txt                    verify's report
#   table_i2s_cp511_512.csv            i2s over l = -5 .. 5, step 0.5, at cp 511/512
#   verify_cp511_512.txt               verify's report at cp 511/512 (both: an offset
#                                      cycle of 1,023 slots)
#   psd.csv                            both PSDs over f = -10 .. 10, step 0.05
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
out=$1
configs=$(cd "$(dirname "$0")/../configs" && pwd)
mkdir -p "$out"

coexsim() { python -m coexsim.cli "$@"; }

for cp in 0 1/8 7/16; do
    tag=cp${cp//\//_}
    for dir in s2i i2s; do
        coexsim table --config "$configs/reference.yaml" --cp-ratio "$cp" --direction "$dir" \
            --lmin -50 --lmax 50 --lstep 0.01 --out "$out/table_${dir}_$tag.csv"
    done
    coexsim verify --config "$configs/reference.yaml" --cp-ratio "$cp" > "$out/verify_$tag.txt"
    # the OQAM victims are the secondary subcarriers: i2s reads the role-swapped scenario
    for dir in s2i i2s o2o; do
        config=reference
        if [ "$dir" = i2s ]; then config=secondary_victim; fi
        for df in 0 0.3; do
            for n in 17 2000 2113 10000; do
                coexsim simulate --config "$configs/$config.yaml" --cp-ratio "$cp" \
                    --direction "$dir" --delta-f "$df" --symbols "$n" \
                    --out "$out/simulate_${dir}_${tag}_df${df}_n$n.csv"
            done
        done
    done
done
for dir in s2i i2s; do
    coexsim table --config "$configs/reference.yaml" --direction "$dir" \
        --lmin 0 --lmax 4096 --lstep 1 --out "$out/table_4097_$dir.csv"
done
coexsim table --config "$configs/reference.yaml" --cp-ratio 511/512 --direction i2s \
    --lmin -5 --lmax 5 --lstep 0.5 --out "$out/table_i2s_cp511_512.csv"
coexsim verify --config "$configs/reference.yaml" --cp-ratio 511/512 > "$out/verify_cp511_512.txt"
coexsim psd --config "$configs/reference.yaml" --lmin -10 --lmax 10 --lstep 0.05 \
    --out "$out/psd.csv"
