#!/usr/bin/env bash
# Build file of the dtperf benchmark: compiles the engine (src/main/scala)
# and the benchmark (dtperf/src) with the Scala compiler that ships in the
# Spark distribution's jar directory ($2), into the class directory $1.
#   bash dtperf/build.sh .bench_build/dtperf/classes "$SPARK_HOME/jars"   (from the repo root)
set -euo pipefail
out="$1"
jars="$2"
[ -d src/main/scala ] || { echo "build.sh: src/main/scala not found; run from the repo root" >&2; exit 2; }
rm -rf "$out.tmp"
mkdir -p "$out.tmp"
find src/main/scala dtperf/src -name '*.scala' | sort > "$out.tmp.sources"
java -Xss8m -Xmx2g -cp "$jars/*" scala.tools.nsc.Main -nowarn -classpath "$jars/*" -d "$out.tmp" "@$out.tmp.sources"
rm -rf "$out" "$out.tmp.sources"
mv "$out.tmp" "$out"
