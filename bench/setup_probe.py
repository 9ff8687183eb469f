"""Set-up cost of one workload, measured inside a fresh interpreter.

Usage: setup_probe.py STATE_DIM OBS_DIM COND TRIALS MASTER_SEED [gradcheck]

Times importing gainlab and building the first batch's config and problems
(for gradcheck, importing gainlab and its CLI) and prints the seconds taken.
The caller pins BLAS threads and puts the library on PYTHONPATH.
"""

import sys
import time


def main(argv):
    start = time.perf_counter()
    import gainlab
    if argv[5:] == ["gradcheck"]:
        import gainlab.cli  # noqa: F401
    else:
        state_dim, obs_dim, trials, seed = map(int, (argv[0], argv[1], argv[3],
                                                     argv[4]))
        config = gainlab.ExperimentConfig(state_dim=state_dim, obs_dim=obs_dim,
                                          trials=trials, master_seed=seed,
                                          cond_target=float(argv[2]))
        for index in range(config.trials):
            gainlab.make_problem(config.state_dim, config.obs_dim,
                                 gainlab.mix_seed(seed, index),
                                 config.cond_target)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
