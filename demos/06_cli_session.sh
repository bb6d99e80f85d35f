#!/bin/sh
# End-to-end CLI session: write a factor, build a product, check it,
# detect the structure and extract the factors. Every command prints one
# JSON document; exit codes are 0 (all pass), 1 (a check failed), 2
# (usage error).
set -e

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/h2.immersion" <<'EOF'
immersion h2 {
  vars: s;
  components: (0.7071067811865476 * exp(s), 0.7071067811865476 * exp(-s));
}
EOF

echo "== construct =="
calabi construct pair "$work/h2.immersion" "$work/h2.immersion" \
    --name c4 -o "$work/c4.immersion"

echo "== check =="
calabi check "$work/c4.immersion" --grid g27

echo "== detect (deterministic for a fixed seed) =="
calabi detect "$work/c4.immersion" --grid g27 --seed 42 \
    -o "$work/verdict.json"

echo "== extract =="
calabi extract "$work/c4.immersion" --grid g27 -o "$work/factors"

# The same product scaled by 1.7: detect reads H once, rescales to
# H = -1 (scale 1/1.7) and extracts the same factors.
cat > "$work/c4_scaled.immersion" <<'EOF'
#@product(kind=pair, n2=1, n3=1, axis=t, factors=h2|h2)
immersion c4_scaled {
  vars: t, s, r;
  components: (0.85 * exp(t + s), 0.85 * exp(t - s),
               0.85 * exp(r - t), 0.85 * exp(-t - r));
}
EOF

echo "== detect off the H = -1 gauge =="
calabi detect "$work/c4_scaled.immersion" --grid g27

echo "== extract off the H = -1 gauge =="
calabi extract "$work/c4_scaled.immersion" --grid g27 \
    -o "$work/factors_scaled"

echo "== artifacts =="
ls "$work/factors" "$work/factors_scaled"
head -n 3 "$work/factors/factor1.immersion"
