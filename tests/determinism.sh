#!/usr/bin/env bash
# Cross-process determinism: runs a fixed set of chaosctl commands and
# writes each one's output files to OUTDIR/files and its stderr to
# OUTDIR/stderr.  Two runs under different hash seeds must agree byte for
# byte:
#
#     cd "$(mktemp -d)"
#     PYTHONHASHSEED=1 bash path/to/checkout/tests/determinism.sh run1
#     PYTHONHASHSEED=2 bash path/to/checkout/tests/determinism.sh run2
#     diff -r run1 run2
#
# The commands run the code of the checkout that holds this script, not an
# installed chaosctl.  The plugins they load are written to the working
# directory, so run it from a scratch one; warnings raised in a plugin name
# its path, so runs to be compared must start from the same directory.  A
# copy of the script in another checkout, run from that directory, gives
# that checkout's files and stderr to compare with this one's.
set -eu
if [ $# -ne 1 ]; then
  echo "usage: $0 OUTDIR" >&2
  exit 2
fi
out=$1
src=$(cd "$(dirname "$0")/../src" && pwd)
mkdir -p "$out/files" "$out/stderr"

chaosctl() {
  PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python3 -c \
    'import sys; from chaosctl.cli import main; sys.exit(main())' "$@"
}

K=28.0120,22.4096,4.6251
# the LPA map as a plugin without evaluate_batch
cat > lpaplugin.py <<'EOF'
from chaosctl import MapModel, lpa_map

def make():
    lpa = lpa_map()
    return MapModel(dimension=3, evaluate=lpa.evaluate, domain=lpa.domain,
                    jacobian=lpa.jacobian, name="lpa-plugin")
EOF
# x -> x^2 as a plugin with evaluate_batch
cat > squareplugin.py <<'EOF'
import numpy as np
from chaosctl import DomainSpec, MapModel

def square(x):
    return np.asarray(x, float) ** 2

def make():
    return MapModel(dimension=1, evaluate=square, evaluate_batch=square,
                    domain=DomainSpec.nonnegative_orthant(1), name="square")
EOF
# x -> 4.2x(1-x) on [0, 1] as a plugin with evaluate_batch
cat > logisticplugin.py <<'EOF'
import numpy as np
from chaosctl import DomainSpec, MapModel

def logistic(x):
    x = np.asarray(x, float)
    return 4.2 * x * (1.0 - x)

def make():
    return MapModel(dimension=1, evaluate=logistic, evaluate_batch=logistic,
                    domain=DomainSpec.box([0.0], [1.0]), name="logistic")
EOF
# x -> x exp(3 - x) as a plugin that writes its formula once, on
# components, for evaluate, evaluate_batch and its own float step
cat > floatplugin.py <<'EOF'
import numpy as np
from chaosctl import DomainSpec, MapModel

def components(x):
    return (x[0] * np.exp(3.0 - x[0]),)

def evaluate(x):
    return np.stack(components(np.asarray(x, float).T), axis=-1)

def make():
    return MapModel(dimension=1, evaluate=evaluate, evaluate_batch=evaluate,
                    evaluate_floats=components,
                    domain=DomainSpec.nonnegative_orthant(1), name="ricker1")
EOF
chaosctl bifurcate --set scan.grid=10 \
  --set control.scheme=VMTOC --set control.target=$K --out "$out/files/det" 2> "$out/stderr/det"
chaosctl stability --set run.x0=20,20,5 \
  --set sample.lo=10,10,2 --set sample.hi=40,40,8 --out "$out/files/stab" 2> "$out/stderr/stab"
chaosctl stability --set run.x0=20,20,5 \
  --set sample.lo=10,10,2 --set sample.hi=40,40,8 --set control.scheme=VMTOC \
  --set control.intensity=0.4 --set control.target=$K --out "$out/files/stabc" 2> "$out/stderr/stabc"
chaosctl simulate --seed 2 --out "$out/files/sim" 2> "$out/stderr/sim"
# a lone orbit under VTOC, on the delay-3 Ricker lift
chaosctl simulate --seed 2 --set model.kind=ricker \
  --set model.delay=3 --set control.scheme=VTOC --set control.intensity=0.3 \
  --set control.target=1,1,1 --out "$out/files/simv" 2> "$out/stderr/simv"
chaosctl cost --seed 2 --set control.scheme=VMTOC \
  --set control.target=$K --out "$out/files/cost" 2> "$out/stderr/cost"
chaosctl equilibrium --set run.x0=20,20,5 --out "$out/files/eq" 2> "$out/stderr/eq"
# from (20, 20, 20) the search lands on the extinction state 0, and
# both reports say that it lies on the domain boundary
chaosctl stability --set run.x0=20,20,20 --out "$out/files/stab0" \
  2> "$out/stderr/stab0"
chaosctl equilibrium --set run.x0=20,20,20 --out "$out/files/eq0" \
  2> "$out/stderr/eq0"
chaosctl lyapunov --set run.x0=22,27,5 --out "$out/files/lyap" 2> "$out/stderr/lyap"
# the controlled lyapunov and equilibrium run on the map that checks their control
chaosctl lyapunov --set run.x0=22,27,5 --set control.scheme=VMTOC \
  --set control.intensity=0.4 --set control.target=$K --out "$out/files/lyapc" 2> "$out/stderr/lyapc"
chaosctl equilibrium --set run.x0=20,20,5 --set control.scheme=VMTOC \
  --set control.intensity=0.4 --set control.target=$K --out "$out/files/eqc" 2> "$out/stderr/eqc"
# a chained scan runs each grid point as a one-row orbit
chaosctl bifurcate --seed 7 --set model.kind=ricker \
  --set model.r=2 --set model.delay=2 --set control.scheme=VMTOC \
  --set control.target=1,3 --set scan.grid=150 --set scan.continue=true \
  --set scan.cost=true --set run.n_transient=250 --out "$out/files/chain" 2> "$out/stderr/chain"
# chained LPA orbits toward K with the default steps: most fill
# their kept windows from bitwise recurrences, above all of
# periods 1 and 2
chaosctl bifurcate --set control.scheme=VMTOC \
  --set control.target=$K --set scan.continue=true --set scan.cost=true \
  --out "$out/files/chaink" 2> "$out/stderr/chaink"
# a lone orbit whose first recurrence, at step 61, falls mid-block
# and inside the kept window
chaosctl simulate --set run.x0=22,27,5 \
  --set control.scheme=VMTOC --set control.intensity=0.6 \
  --set control.target=$K --set run.n_transient=20 --set run.n_keep=400 \
  --out "$out/files/simk" 2> "$out/stderr/simk"
# bubbles of lost stability toward (30, 30, 200)
chaosctl bubbles --seed 123 --set control.scheme=VMTOC \
  --set control.target=30,30,200 --out "$out/files/bub" 2> "$out/stderr/bub"
# a chained scan's cost column under the sum norm, priced in one pass
chaosctl bifurcate --seed 7 --set model.kind=ricker \
  --set model.r=2 --set model.delay=2 --set control.scheme=VMTOC \
  --set control.target=1,3 --set scan.grid=150 --set scan.continue=true \
  --set scan.cost=true --set cost.norm=sum --set run.n_transient=250 \
  --out "$out/files/chainsum" 2> "$out/stderr/chainsum"
# a fresh scan classified in one pass on a short kept window
chaosctl bifurcate --set control.scheme=VMTOC \
  --set control.target=30,30,200 --set run.n_keep=12 \
  --set scan.max_period=5 --out "$out/files/fresh12" 2> "$out/stderr/fresh12"
# a fresh scan of a plugin without evaluate_batch runs each grid
# point as a lone orbit; its cost column evaluates row by row
PYTHONPATH="$PWD" chaosctl bifurcate \
  --set model.kind=plugin --set model.plugin=lpaplugin:make \
  --set scan.grid=30 --set control.scheme=VMTOC --set control.target=$K \
  --set scan.cost=true --out "$out/files/plugin" 2> "$out/stderr/plugin"
# fresh scans whose rows leave the batch and run alone: the square
# overflows at weak controls, and LPA states start below 0
PYTHONPATH="$PWD" chaosctl bifurcate \
  --set model.kind=plugin --set model.plugin=squareplugin:make \
  --set init.lo=1.5 --set init.hi=1.9 --set control.scheme=VMTOC \
  --set control.target=0 --out "$out/files/square" 2> "$out/stderr/square"
chaosctl bifurcate --set control.scheme=VMTOC \
  --set control.target=$K --set init.lo=-1 --set init.hi=5 --out "$out/files/below" 2> "$out/stderr/below"
# a chained scan whose weak controls overflow: a failed point has
# no final state, so the next one starts from the same state
PYTHONPATH="$PWD" chaosctl bifurcate \
  --set model.kind=plugin --set model.plugin=squareplugin:make \
  --set init.lo=1.5 --set init.hi=1.9 --set control.scheme=VMTOC \
  --set control.target=0 --set scan.continue=true \
  --out "$out/files/squarechain" 2> "$out/stderr/squarechain"
# logistic rows leave the box [0, 1]; some come back and survive
PYTHONPATH="$PWD" chaosctl bifurcate \
  --set model.kind=plugin --set model.plugin=logisticplugin:make \
  --set init.lo=0 --set init.hi=1 --set control.scheme=VMTOC \
  --set control.target=0.5 --out "$out/files/logistic" 2> "$out/stderr/logistic"
# a fresh scan whose rows recur and retire one by one inside a
# long kept window; the last row runs on alone from step 256
chaosctl bifurcate --set control.scheme=VMTOC \
  --set control.target=30,30,200 --set scan.grid=5 \
  --set run.n_transient=20 --set run.n_keep=400 --out "$out/files/handoff" 2> "$out/stderr/handoff"
# the benchmark's 29-point grid toward (30, 200, 30): six rows,
# two of them chaotic, run on alone together from step 128
chaosctl bifurcate --seed 123 --set control.scheme=VMTOC \
  --set control.target=30,200,30 --set scan.grid=30 --out "$out/files/handoff6" 2> "$out/stderr/handoff6"
# the plugin's batch hands its last five rows to its float step
PYTHONPATH="$PWD" chaosctl bifurcate \
  --set model.kind=plugin --set model.plugin=floatplugin:make \
  --set init.lo=0 --set init.hi=3 --set control.scheme=VMTOC \
  --set control.target=1 --set scan.grid=12 --out "$out/files/floats" 2> "$out/stderr/floats"
# a chained scan of the plugin under VTOC: its own float step runs
# inside the compiled wrapper, after the pull before the map
PYTHONPATH="$PWD" chaosctl bifurcate \
  --set model.kind=plugin --set model.plugin=floatplugin:make \
  --set init.lo=0 --set init.hi=3 --set control.scheme=VTOC \
  --set control.target=1 --set scan.grid=30 --set scan.continue=true \
  --out "$out/files/floatsv" 2> "$out/stderr/floatsv"
# a chained LPA scan under VTOC, whose float step pulls before the map
chaosctl bifurcate --seed 3 --set control.scheme=VTOC \
  --set control.target=$K --set scan.continue=true --set scan.grid=100 \
  --out "$out/files/chainv" 2> "$out/stderr/chainv"
# a chained scan of the delay-5 Ricker lift, five components a step
chaosctl bifurcate --seed 7 --set model.kind=ricker \
  --set model.r=2 --set model.delay=5 --set control.scheme=VMTOC \
  --set control.target=1,1,1,1,1 --set scan.grid=100 --set scan.continue=true \
  --set scan.cost=true --set run.n_transient=250 --out "$out/files/chain5" 2> "$out/stderr/chain5"
# lone orbits under the other three schemes, whose compiled float
# steps pull after the map (MPF, DIAG-VMTOC) or before it (PF)
chaosctl simulate --seed 2 --set control.scheme=MPF \
  --set control.intensity=0.3 --out "$out/files/simmpf" 2> "$out/stderr/simmpf"
chaosctl simulate --seed 2 --set model.kind=ricker \
  --set model.delay=4 --set control.scheme=PF --set control.intensity=0.2 \
  --out "$out/files/simpf" 2> "$out/stderr/simpf"
chaosctl simulate --seed 2 --set control.scheme=DIAG-VMTOC \
  --set control.intensity=0.1,0.3,0.5 --set control.target=$K \
  --out "$out/files/simdiag" 2> "$out/stderr/simdiag"
# a fresh LPA scan under VTOC toward (30, 30, 200), whose batch step
# pulls before the map
chaosctl bifurcate --set control.scheme=VTOC \
  --set control.target=30,30,200 --out "$out/files/freshv" 2> "$out/stderr/freshv"
# fresh scans of the delay-3 Ricker lift, whose batch steps the
# columns of its formula with each grid point's pull written in,
# after the map and before it
chaosctl bifurcate --set model.kind=ricker \
  --set model.delay=3 --set control.scheme=VMTOC --set control.target=1,1,1 \
  --set init.hi=3 --out "$out/files/freshr" 2> "$out/stderr/freshr"
chaosctl bifurcate --set model.kind=ricker \
  --set model.delay=3 --set control.scheme=VTOC --set control.target=1,1,1 \
  --set init.hi=3 --out "$out/files/freshrv" 2> "$out/stderr/freshrv"
# a stability report under VTOC, whose Jacobian pulls before the map
chaosctl stability --set run.x0=20,20,5 \
  --set sample.lo=10,10,2 --set sample.hi=40,40,8 --set control.scheme=VTOC \
  --set control.intensity=0.4 --set control.target=$K --out "$out/files/stabv" \
  2> "$out/stderr/stabv"
# the Ricker lift's Jacobian, compiled from its formula: a stability
# report of the delay-2 lift and the tangent pass of the delay-3 one
chaosctl stability --set model.kind=ricker \
  --set run.x0=1.5,2.5 --set sample.lo=0 --set sample.hi=6 \
  --out "$out/files/stabr" 2> "$out/stderr/stabr"
chaosctl lyapunov --set model.kind=ricker --set model.delay=3 \
  --set run.x0=1.5,0.5,1.2 --out "$out/files/lyapr" 2> "$out/stderr/lyapr"
# a chained scan of the delay-2 lift whose weak controls overflow
# inside the block compiled from its formula; each failing step
# replays through the array form, whose warnings name its lines
chaosctl bifurcate --seed 7 --set model.kind=ricker \
  --set model.r=800 --set model.delay=2 --set control.scheme=VMTOC \
  --set control.target=1000,1000 --set scan.grid=30 --set scan.continue=true \
  --set run.n_transient=250 --set init.lo=0 --set init.hi=800 \
  --out "$out/files/chainfail" 2> "$out/stderr/chainfail"
