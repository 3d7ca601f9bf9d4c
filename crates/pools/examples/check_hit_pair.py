#!/usr/bin/env python3
"""Pin the typed hit path's code (see hit_pair.rs): fail on any `lock`-prefixed
instruction in `hit_pair`, or on more instructions than RECORDED along its
straight-line path, which falls through every conditional branch, follows
unconditional jumps and ends at the first `ret`.

    python3 crates/pools/examples/check_hit_pair.py target/release/examples/hit_pair
"""

import re
import subprocess
import sys

# x86-64, rustc 1.95, `codegen-units = 1` (the workspace's release profile).
RECORDED = 65

binary = sys.argv[1]
listing = subprocess.run(
    ["objdump", "-d", "--no-show-raw-insn", "-C", binary], check=True, capture_output=True, text=True
).stdout
body = listing.split("<hit_pair::hit_pair>:\n", 1)[-1].split("\n\n", 1)[0]
insns = [(int(a, 16), t.strip()) for a, t in re.findall(r"^\s*([0-9a-f]+):\s+(.*)$", body, re.M)]
if not insns or body == listing:
    sys.exit(f"hit_pair::hit_pair not found in {binary}")
at = {addr: i for i, (addr, _) in enumerate(insns)}

path, i = [], 0
while not path or path[-1] != "ret":
    if i not in range(len(insns)) or len(path) > len(insns):
        sys.exit("no `ret` on the straight-line path")
    path.append(insns[i][1])
    jump = re.match(r"jmp\s+([0-9a-f]+) ", path[-1])
    i = at.get(int(jump.group(1), 16), -1) if jump else i + 1
print("\n".join(path))
print(f"hit_pair: {len(path)} instructions on the straight-line path (recorded {RECORDED})")

locked = [text for _, text in insns if re.match(r"lock\b", text)]
if locked:
    print("locked instructions:", *locked, sep="\n  ")
if len(path) > RECORDED:
    print(f"the hit path grew past the recorded {RECORDED} instructions")
sys.exit(1 if locked or len(path) > RECORDED else 0)
