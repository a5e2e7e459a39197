#!/usr/bin/env python3
"""Checks a Table 2 trajectory against the committed snapshot.

Usage: check_accuracy.py NEW.json [SNAPSHOT.json]

NEW.json is the output of `bench/table2_accuracy --json=NEW.json`; the
snapshot defaults to BENCH_accuracy.json next to this script's parent
directory. Every SPSTA/SSTA/MC mean, sigma and probability must match the
snapshot to 1e-9 relative (Monte Carlo is bitwise reproducible, so a drift
here is an engine change, not noise), and SPSTA must stay within the
paper's error vs MC: mean error <= 6.2%, sigma error <= 18.6%.
Exits nonzero with the first mismatch on failure.
"""

import json
import math
import os
import sys


def same(a, b, path):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            same(a[k], b[k], path + '.' + k)
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            same(x, y, '%s[%d]' % (path, i))
    elif isinstance(a, float) or isinstance(b, float):
        assert math.isclose(a, b, rel_tol=1e-9), (path, a, b)
    else:
        assert a == b, (path, a, b)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    snap_path = argv[2] if len(argv) == 3 else os.path.join(root, 'BENCH_accuracy.json')
    with open(argv[1]) as f:
        new = json.load(f)
    with open(snap_path) as f:
        snap = json.load(f)
    same(snap, new, '')
    for sc in new['scenarios']:
        s = sc['summary']
        assert s['spsta_mu'] <= 0.062 and s['spsta_sigma'] <= 0.186, (sc['scenario'], s)
    print('accuracy: %s matches %s' % (argv[1], snap_path))


if __name__ == '__main__':
    main(sys.argv)
