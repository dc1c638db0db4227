"""Counter gate for the committed BENCH files.

Usage: python3 .github/counter_gate.py BENCH_a.json [BENCH_b.json ...]

Each named file has just been regenerated in the working tree. Every
counter of every completed (graph, algo) record must equal the value
committed at HEAD, and the two sets of completed records must match.
Counters are deterministic; wall times and heap peaks are not checked
here.
"""
import json
import subprocess
import sys


def completed(doc):
    return {(r['graph'], r['algo']): r['counters']
            for r in doc['records'] if r.get('completed')}


bad = []
for name in sys.argv[1:]:
    committed = subprocess.run(['git', 'show', f'HEAD:{name}'], check=True,
                               capture_output=True, text=True).stdout
    want = completed(json.loads(committed))
    got = completed(json.load(open(name)))
    if set(got) != set(want):
        bad.append(f'{name}: completed records differ: '
                   f'missing {sorted(set(want) - set(got))}, '
                   f'new {sorted(set(got) - set(want))}')
    for key in sorted(set(got) & set(want)):
        for c in sorted(set(got[key]) | set(want[key])):
            g, w = got[key].get(c), want[key].get(c)
            if g != w:
                bad.append(f'{name} {key} {c}: committed {w}, regenerated {g}')
    print(f'{name}: {len(got)} completed records checked')
if bad:
    sys.exit('counter gate: ' + '; '.join(bad))
print('counter gate: every counter equals the committed value')
