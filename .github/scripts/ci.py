"""Small steps the workflows repeat, one subcommand each.

    python .github/scripts/ci.py stage-config EXPERIMENT_JSON OUT_JSON
        Write the stage config `shslab build` reads (segments and the
        contingencies of the experiment's segment) from an experiment config.
    python .github/scripts/ci.py noisy-config EXPERIMENT_JSON OUT_JSON
        Write the experiment config with a random initial state and
        noise_sigma = 1e-3.
    python .github/scripts/ci.py same-verdicts RUN_REPORT REPLAY_REPORT
        Print both reports' verdicts and exit 1 unless they are the same.
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def stage_config(experiment, out):
    d = load(experiment)
    save({"segments": d["segments"], "contingencies": {str(d["segment"]): d["contingencies"]}},
         out)


def noisy_config(experiment, out):
    d = load(experiment)
    d.update(x0_mode="random", noise_sigma=1e-3)
    save(d, out)


def same_verdicts(run, replay):
    d = [[w["detected"] for w in load(p)["windows"]] for p in (run, replay)]
    print("run", d[0], "replay", d[1])
    return int(d[0] != d[1])


COMMANDS = {"stage-config": stage_config, "noisy-config": noisy_config,
            "same-verdicts": same_verdicts}

if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in COMMANDS:
        sys.exit(__doc__)
    sys.exit(COMMANDS[sys.argv[1]](*sys.argv[2:]))
