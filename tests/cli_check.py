#!/usr/bin/env python3
"""Command-line checks on the built front ends.

  cli_check.py malformed NAME=PATH...
      Runs each malformed command line below. Each must exit with its
      front end's usage code (fatal()'s 1; bench_cluster's 2, whose 1
      means a claim failed) and print a message naming the flag and
      the token (the flag only, for an empty token: there is nothing
      to quote). Exit 0 and a crash (e.g. 134 from an abort) both
      fail.

  cli_check.py docs NAME=PATH...
      Every flag that a command line in README.md or EXPERIMENTS.md
      passes to a front end must appear in that front end's --help.

NAME is a program name (coscale_sim, bench_cluster, ...); PATH is its
binary. Any bench_* harness without an entry of its own is checked
against the `bench_harness` entry, since they share one option table.
"""

import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (program, arguments, flag, token). The coscale_sim probes hit each
# kind of range the table enforces, plus the mix and policy names and
# the three cluster values checked after parsing (--arrival, --churn,
# --lb), which are checked with and without --nodes. An empty spec is
# rejected as well, since it would read as "flag not given".
PROBES = [
    ("coscale_sim", ["--scale", "abc"], "--scale", "abc"),
    ("coscale_sim", ["--cores", "0"], "--cores", "0"),
    ("coscale_sim", ["--cores", "-3"], "--cores", "-3"),
    ("coscale_sim", ["--freq-steps", "0"], "--freq-steps", "0"),
    ("coscale_sim", ["--freq-steps", "1"], "--freq-steps", "1"),
    ("coscale_sim", ["--cluster-epochs", "0", "--nodes", "2"],
     "--cluster-epochs", "0"),
    ("coscale_sim", ["--bound", "-5"], "--bound", "-5"),
    ("coscale_sim", ["--node-cores", "0", "--nodes", "2"],
     "--node-cores", "0"),
    ("coscale_sim", ["--nodes", "-1"], "--nodes", "-1"),
    ("coscale_sim", ["--jobs", "-2"], "--jobs", "-2"),
    ("coscale_sim", ["--seed", "-5"], "--seed", "-5"),
    ("coscale_sim", ["--mix", "bogus"], "--mix", "bogus"),
    ("coscale_sim", ["--policy", "bogus"], "--policy", "bogus"),
    ("coscale_sim", ["--nodes", "2", "--arrival", "rate=abc"], "--arrival",
     "rate=abc"),
    ("coscale_sim", ["--nodes", "2", "--churn", "crash=2"], "--churn",
     "crash=2"),
    ("coscale_sim", ["--nodes", "2", "--lb", "bogus"], "--lb", "bogus"),
    ("coscale_sim", ["--scale", "0.01", "--arrival", "rate=abc"],
     "--arrival", "rate=abc"),
    ("coscale_sim", ["--scale", "0.01", "--churn", "crash=5"], "--churn",
     "crash=5"),
    ("coscale_sim", ["--scale", "0.01", "--lb", "bogus"], "--lb", "bogus"),
    ("coscale_sim", ["--nodes", "2", "--arrival", ""], "--arrival", ""),
    ("coscale_sim", ["--scale", "0.01", "--churn", ""], "--churn", ""),
    ("bench_cluster", ["--nodes", "abc"], "--nodes", "abc"),
    ("bench_cluster", ["--arrival", "rate=abc"], "--arrival", "rate=abc"),
    ("bench_cluster", ["--churn", "crash=2"], "--churn", "crash=2"),
    ("bench_cluster", ["--arrival", ""], "--arrival", ""),
    ("bench_harness", ["--jobs", "2x"], "--jobs", "2x"),
    ("bench_harness", ["abc"], "scale", "abc"),
    ("trace_dump", ["probe.trace", "--records", "abc"], "--records",
     "abc"),
    ("quickstart", ["MID1", "abc"], "scale", "abc"),
]

USAGE_EXIT = {"bench_cluster": 2}


def binaries(argv):
    out = {}
    for a in argv:
        name, _, path = a.partition("=")
        out[name] = path
    return out


def check_malformed(bins):
    failures = []
    with tempfile.TemporaryDirectory() as cwd:
        # trace_dump's probe needs a real trace file, so that a
        # `--records abc` read as 0 would show up as exit 0.
        subprocess.run([bins["trace_dump"], "--make", "ammp", "--out",
                        "probe.trace", "--instructions", "20000"],
                       cwd=cwd, check=True, capture_output=True)
        for prog, args, flag, token in PROBES:
            cmd = [bins[prog]] + args
            shown = " ".join([prog] + args)
            want = USAGE_EXIT.get(prog, 1)
            try:
                proc = subprocess.run(cmd, cwd=cwd, capture_output=True,
                                      text=True, timeout=20)
            except subprocess.TimeoutExpired:
                failures.append("%s: still running after 20 s" % shown)
                continue
            msg = proc.stderr + proc.stdout
            if proc.returncode != want:
                failures.append("%s: exit %d, want %d (%s)"
                                % (shown, proc.returncode, want,
                                   msg.strip()[-200:]))
            elif flag not in msg or (token and "'%s'" % token not in msg):
                failures.append("%s: message does not name %s and '%s': "
                                "%s" % (shown, flag, token, msg.strip()))
            else:
                print("ok   %-45s %s" % (shown, msg.strip()))
    return failures


def command_lines(text):
    """Shell command lines of the ```sh blocks, continuations joined."""
    lines = []
    in_block = False
    pending = ""
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = line.strip() == "```sh" and not in_block
            pending = ""
            continue
        if not in_block:
            continue
        line = line.split(" #")[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        lines.append(pending + line)
        pending = ""
    return lines


def check_docs(bins):
    helps = {}
    for name, path in bins.items():
        proc = subprocess.run([path, "--help"], capture_output=True,
                              text=True, timeout=20)
        if proc.returncode != 0:
            return ["%s --help exited %d" % (name, proc.returncode)]
        helps[name] = proc.stdout
    failures = []
    checked = 0
    for doc in ("README.md", "EXPERIMENTS.md"):
        with open(os.path.join(REPO, doc), encoding="utf-8") as f:
            text = f.read()
        for line in command_lines(text):
            words = line.replace('"', " ").split()
            for i, w in enumerate(words):
                prog = os.path.basename(w)
                if prog not in helps and not prog.startswith("bench_"):
                    continue
                help_text = helps.get(prog, helps["bench_harness"])
                for flag in words[i + 1:]:
                    if not re.match(r"^--[a-z]", flag):
                        continue
                    checked += 1
                    if not re.search(r"^  %s(?=\s)" % re.escape(flag),
                                     help_text, re.M):
                        failures.append("%s: `%s` passes %s, which its "
                                        "--help does not list"
                                        % (doc, prog, flag))
                break
    print("checked %d documented flags" % checked)
    if checked == 0:
        failures.append("no documented command lines found")
    return failures


def main(argv):
    if len(argv) < 2 or argv[0] not in ("malformed", "docs"):
        sys.stderr.write(__doc__)
        return 2
    bins = binaries(argv[1:])
    failures = (check_malformed if argv[0] == "malformed"
                else check_docs)(bins)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
