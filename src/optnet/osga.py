"""Genetic search with offspring selection.

The algorithm keeps a fixed-size population and, each generation, breeds
candidate offspring (binary-tournament parents, crossover, mutation)
until a configured share of the next population consists of
"successful" children: a child is successful when its fitness strictly
beats an interpolation between its parents' fitnesses
(comparison_factor 1 demands beating the better parent, 0 only the
worse). Slots not owed to successful children are filled by the
remaining offspring in creation order. The ratio of offspring created to
population size is the selection pressure; runs stop when it exceeds a
cap, when the evaluation budget runs out, or when a target fitness is
reached. Fitness is minimized throughout; a non-finite fitness (NaN or
an infinity) counts as +inf, the worst possible value.

The search is a generator, osga_stream, that yields batches of genomes
and takes their fitnesses back, and advance is the one function that
steps it. A child's genome depends only on the population it is bred
from and the random stream, so each batch holds every child the
sequential search would evaluate next in any outcome, drawn in the same
order; a caller can score a batch in one vectorized call and still get
the sequential run bit for bit. drive runs a stream against a batch
fitness callable, and osga_minimize is built on it with a per-genome
evaluator (per_genome adapts one to drive), while network nodes step the
stream with advance, one batch out and its fitnesses back per message,
so a message-passing network evaluates candidates remotely on this
exact code path.

Draw rule. Every variation operator is its draws followed by a draw-free
transform on the last axis, so a genome spec's breed makes a whole batch
of children from their stacked draws. A batch draws each child's numbers
in child order, as numpy's calls integers(population_size, size=4) for
both binary tournaments, integers(1, d) for the single-point cut where
that crossover draws one, one random(k) for the crossover's and the
mutation's uniforms, and standard_normal(d) for a real genome's
mutation. On the counter-based Philox stream these calls give the
values, and leave the state, of the per-operator calls they stand for
(integers(n, size=4) those of four scalar calls, random(a + b) those of
random(a) then random(b)). The picks and uniforms are decoded from
Philox's raw words with the calls' values and final state, and the calls
draw the children the decode cannot stand for: other generators, a
32-bit half buffered at the batch's start, single-point plans, and every
child from the first Lemire rejection on (see _decode_children). The
decoder checks itself against the calls once per process and, if they
disagree, leaves every child to them. The batch's tournaments,
crossovers, mutations and success thresholds are then computed once on
the stacked draws. With a target fitness set any child might end the
run, so a generation still breeds its whole batch ahead but yields one
genome at a time; when a child reaches the target, the stream is put
back to the batch's start and redraws up to that child, so it ends where
the one-child-at-a-time search ends.
"""

from __future__ import annotations

import functools
import math
import pickle
from dataclasses import dataclass

import numpy as np

from ._rng import lemire_halves, substream, uniforms
from .errors import (
    BudgetTooSmallError,
    InfeasibleBoundsError,
    InvalidConfigError,
    ShapeMismatchError,
)

# ---------------------------------------------------------------------------
# Variation operators
#
# Each operator is its draws followed by a draw-free transform on the last
# axis; a genome spec's breed applies the transforms to a stacked batch,
# whose draws _draw_children makes by the module's draw rule.

def _draws_cut(kind: str, d: int) -> bool:
    """Whether a crossover of kind draws a cut, from [1, d); a
    single-point cut of a genome shorter than 2 is d, the child parent a."""
    return kind == "single-point" and d > 1


def _crossover_uniforms(kind: str, d: int) -> int:
    """How many uniforms a crossover of kind draws for length d."""
    return {"uniform": d, "single-point": 0, "arithmetic": 1,
            "simulated-binary": 2 * d}[kind]


def _crossover(a, b, kind, cut, u):
    """Children of parents a and b from their crossover draws: cut (a
    single-point cut per child) and u (the crossover's uniforms).
    "uniform" picks each component from either parent, "arithmetic"
    blends the whole vectors with one weight, and "simulated-binary"
    samples each component around the parents with distribution
    index 2 (Deb & Agrawal 1995)."""
    if kind == "single-point":
        return np.where(np.arange(a.shape[-1]) < np.expand_dims(cut, -1),
                        a, b)
    if kind == "uniform":
        return np.where(u < 0.5, a, b)
    if kind == "arithmetic":
        return u * a + (1.0 - u) * b
    d = a.shape[-1]
    exponent = 1.0 / (2.0 + 1.0)
    u, v = u[..., :d], u[..., d:]
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** exponent,
                    (1.0 / (2.0 * (1.0 - u))) ** exponent)
    sign = np.where(v < 0.5, 1.0, -1.0)
    return 0.5 * ((a + b) + sign * beta * (b - a))


def _bitflip(genome, u, rate):
    return np.where(u < rate, ~genome, genome)


def _gaussian(genome, u, z, bounds, rate, sigma_fraction):
    # bounds are trusted: osga_stream has RealGenomeSpec.validate check
    # them once, since they stay fixed for a whole search
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    noise = z * (sigma_fraction * (hi - lo))
    return np.clip(np.where(u < rate, genome + noise, genome), lo, hi)


# ---------------------------------------------------------------------------
# Genome descriptions

@dataclass(frozen=True)
class BinaryGenomeSpec:
    """Fixed-length bit-vector genome."""

    crossover_kinds = ("uniform", "single-point")

    length: int
    init_one_probability: float = 0.1

    def validate(self) -> None:
        if self.length < 1:
            raise InvalidConfigError("genome length must be at least 1")
        if not 0.0 <= self.init_one_probability <= 1.0:
            raise InvalidConfigError("init_one_probability must lie in [0, 1]")

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return rng.random(self.length) < self.init_one_probability

    def normals(self) -> int:
        """Gaussian draws per child."""
        return 0

    def breed(self, a, b, kind, rate, cut, u_cross, u_mutate, z):
        """Children of parents a and b (stacked on the leading axes) from
        their crossover's and mutation's draws; see _breed."""
        return _bitflip(_crossover(a, b, kind, cut, u_cross), u_mutate, rate)


@dataclass(frozen=True, eq=False)
class RealGenomeSpec:
    """Real vector genome restricted to a box of per-component bounds."""

    crossover_kinds = ("uniform", "arithmetic", "simulated-binary")

    bounds: np.ndarray
    sigma_fraction: float = 0.1

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.bounds, dtype=np.float64))
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 1:
            raise ShapeMismatchError("bounds must have shape (d, 2)")
        b.flags.writeable = False
        object.__setattr__(self, "bounds", b)

    def validate(self) -> None:
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]) \
                or not np.all(np.isfinite(self.bounds)):
            raise InfeasibleBoundsError("bounds must be finite with lo <= hi")
        if not 0.0 < self.sigma_fraction:
            raise InvalidConfigError("sigma_fraction must be positive")

    @property
    def length(self) -> int:
        return self.bounds.shape[0]

    def random(self, rng: np.random.Generator) -> np.ndarray:
        lo = self.bounds[:, 0]
        hi = self.bounds[:, 1]
        return lo + rng.random(self.length) * (hi - lo)

    def normals(self) -> int:
        """Gaussian draws per child."""
        return self.length

    def breed(self, a, b, kind, rate, cut, u_cross, u_mutate, z):
        """Children of parents a and b (stacked on the leading axes) from
        their crossover's and mutation's draws; see _breed."""
        return _gaussian(_crossover(a, b, kind, cut, u_cross),
                         u_mutate, z, self.bounds, rate, self.sigma_fraction)


# ---------------------------------------------------------------------------
# Algorithm state and results

@dataclass(frozen=True, eq=False)
class Individual:
    genome: np.ndarray
    fitness: float


@dataclass(eq=False)
class RunResult:
    """Outcome of a full run.

    terminated_by is one of "pressure", "budget", or "target".
    best_history holds the population-best fitness after the initial
    evaluation and after each completed generation; pressure_history
    holds the selection pressure of each completed generation plus, when
    the run stopped mid-generation, the partial generation's pressure.
    nonfinite_fitness counts the evaluations that came back NaN or
    infinite and were taken as +inf.
    """

    best: Individual
    evaluations: int
    generations: int
    terminated_by: str
    best_history: tuple[float, ...]
    pressure_history: tuple[float, ...]
    population: tuple[Individual, ...]
    nonfinite_fitness: int = 0


@dataclass
class OsgaParams:
    """Run settings; see the module docstring for the roles they play."""

    population_size: int = 100
    mutation_rate: float | None = None
    comparison_factor: float = 1.0
    success_ratio: float = 0.7
    max_selection_pressure: float = 100.0
    max_evaluations: int = 25000
    crossover_kind: str = "uniform"
    elitism: int = 1
    target_fitness: float | None = None

    def validate(self) -> None:
        if self.population_size < 2:
            raise InvalidConfigError("population_size must be at least 2")
        if self.mutation_rate is not None \
                and not 0.0 <= self.mutation_rate <= 1.0:
            raise InvalidConfigError("mutation_rate must lie in [0, 1]")
        if not 0.0 <= self.comparison_factor <= 1.0:
            raise InvalidConfigError("comparison_factor must lie in [0, 1]")
        if not 0.0 < self.success_ratio <= 1.0:
            raise InvalidConfigError("success_ratio must lie in (0, 1]")
        if not self.max_selection_pressure > 1.0:
            raise InvalidConfigError(
                "max_selection_pressure must exceed 1")
        if self.max_evaluations < 1:
            raise InvalidConfigError("max_evaluations must be at least 1")
        if not 1 <= self.elitism < self.population_size:
            raise InvalidConfigError(
                "elitism must lie in [1, population_size)")
        if self.target_fitness is not None \
                and math.isnan(self.target_fitness):
            raise InvalidConfigError("target_fitness must not be NaN")


@dataclass
class StepStats:
    """Diagnostics from one generation advance."""

    created: int
    n_successful: int
    pressure: float
    completed: bool
    stop_reason: str | None


# ---------------------------------------------------------------------------
# Core engine

def _as_fitness(value) -> float:
    fitness = float(value)
    return fitness if math.isfinite(fitness) else math.inf


def _fitnesses(answers, batch):
    """The answers to a batch as fitness values in order, each
    non-finite one as +inf; so a fitness of +inf marks a non-finite
    answer."""
    if len(answers) != len(batch):
        raise ShapeMismatchError(
            f"{len(answers)} fitness values for a batch of {len(batch)} "
            f"genomes")
    return map(_as_fitness, answers)


def _draw_plan(genome_spec, kind: str, pop_n: int) -> tuple:
    """The arguments after n of _draw_children for a search of
    genome_spec with crossover kind and population size pop_n."""
    d = genome_spec.length
    return (pop_n, d, _draws_cut(kind, d), _crossover_uniforms(kind, d) + d,
            genome_spec.normals())


def _draw_children(rng, n, pop_n, d, cut, n_uniform, n_normal):
    """The draws of n children in child order, stacked: (picks, cuts,
    uniforms, normals), with the values and the final stream of a
    child's calls by the module's draw rule, integers(pop_n, size=4),
    integers(1, d) when cut is set, random(n_uniform) and, when
    n_normal, standard_normal(n_normal). _decode_children decodes the
    leading children it can from the stream's raw words, and the calls
    draw the rest."""
    draws = _empty_draws(n, d, n_uniform, n_normal)
    decoded = _decode_children(rng, pop_n, draws) \
        if n and not cut and _decoder_agrees() else 0
    _call_children(rng, pop_n, d, cut, draws, decoded)
    return draws


def _empty_draws(n, d, n_uniform, n_normal):
    """Room for the draws of n children, every cut d (none drawn)."""
    return (np.empty((n, 4), dtype=np.int64), np.full(n, d),
            np.empty((n, n_uniform)), np.empty((n, n_normal)))


def _call_children(rng, pop_n, d, cut, draws, first):
    """Draw children first, first + 1, ... of draws by numpy's calls."""
    picks, cuts, u, z = draws
    for i in range(first, len(picks)):
        picks[i] = rng.integers(pop_n, size=4)
        if cut:
            cuts[i] = rng.integers(1, d)
        rng.random(out=u[i])
        if z.shape[1]:
            rng.standard_normal(out=z[i])


# Philox words per random_raw call of a binary batch, in whole children
# (at least one), so a large batch's transient words stay bounded
_RAW_WORDS = 1 << 15


def _decode_children(rng, pop_n, draws):
    """Draw the leading children of draws, drawing no cut, from Philox's
    raw 64-bit words, and return how many.

    Philox serves 32-bit draws from its words low half first, keeping the
    high half buffered in the state's has_uint32 and uinteger, and a
    64-bit draw takes a whole word. So with no half buffered at the start
    a child's calls read 2 + k whole words: the four picks from the
    halves of two, decoded by lemire_halves, and the k uniforms one word
    each, decoded by uniforms. The Gaussians stay numpy's, whose
    ziggurat reads a varying number of words: a real genome's child
    reads its 2 + k words and then calls standard_normal. After the batch
    the buffered half is the last child's fourth pick, spent (uinteger
    set, has_uint32 0).

    Returns 0 with the stream untouched where decoding cannot stand for
    the calls: a bit generator other than Philox, a half already
    buffered, or pop_n outside [2, 2**32). Where Lemire rejects a pick,
    numpy draws another half; then the stream is put back to the batch's
    start, the words of the children before the first rejecting one are
    read again, and their count is returned.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.Philox or not 2 <= pop_n < 2**32:
        return 0
    start = bg.state
    if start["has_uint32"]:
        return 0
    picks, _, u, z = draws
    n, width = len(picks), 2 + u.shape[1]
    if z.shape[1]:
        words = np.empty((n, width), dtype=np.uint64)
        for i in range(n):
            words[i] = bg.random_raw(width)
            rng.standard_normal(out=z[i])
        done = _decode(words, pop_n, picks, u)
    else:
        per = max(1, _RAW_WORDS // width)
        for lo in range(0, n, per):
            hi = min(n, lo + per)
            words = bg.random_raw((hi - lo) * width).reshape(-1, width)
            done = lo + _decode(words, pop_n, picks[lo:hi], u[lo:hi])
            if done < hi:
                break
    if done < n:
        bg.state = start
        for i in range(done):
            bg.random_raw(width, output=False)
            if z.shape[1]:
                rng.standard_normal(out=z[i])
        return done
    end = bg.state
    end["uinteger"] = int(words[-1, 1] >> 32)
    bg.state = end
    return n


def _decode(words, pop_n, picks, u):
    """Fill picks and u from children's words, one row each, and return
    how many leading rows have no rejected pick; see _decode_children."""
    picks[...], accepted = lemire_halves(words[:, :2], pop_n)
    u[...] = uniforms(words[:, 2:])
    if accepted.all():
        return len(words)
    return int((~accepted).any(axis=1).argmax())


@functools.cache
def _decoder_agrees() -> bool:
    """Whether _decode_children decodes every child of a fixed Philox
    stream, for a binary and a real plan, with the draws and the final
    state of numpy's calls; checked once per process, and where it does
    not, every child is drawn by the calls."""
    for pop_n, d, n_uniform, n_normal in ((100, 100, 200, 0),
                                          (50, 8, 24, 8)):
        decoded, called = (np.random.Generator(np.random.Philox(2019))
                           for _ in range(2))
        drawn = _empty_draws(16, d, n_uniform, n_normal)
        expected = _empty_draws(16, d, n_uniform, n_normal)
        if _decode_children(decoded, pop_n, drawn) != 16:
            return False
        _call_children(called, pop_n, d, False, expected, 0)
        if [a.tobytes() for a in drawn] != [a.tobytes() for a in expected] \
                or pickle.dumps(decoded.bit_generator.state) \
                != pickle.dumps(called.bit_generator.state):
            return False
    return True


def _breed(genomes, fitness, genome_spec, params, mutation_rate, draws):
    """One batch's children, as a list of genomes, and their success
    thresholds, from the population's genome matrix and fitness vector
    and the batch's stacked draws."""
    picks, cuts, u, z = draws
    # binary tournaments: the fitter pick wins, ties to the first
    pf = fitness[picks]
    p1 = np.where(pf[:, 0] <= pf[:, 1], picks[:, 0], picks[:, 1])
    p2 = np.where(pf[:, 2] <= pf[:, 3], picks[:, 2], picks[:, 3])
    kind = params.crossover_kind
    k = _crossover_uniforms(kind, genome_spec.length)
    children = genome_spec.breed(genomes[p1], genomes[p2], kind,
                                 mutation_rate, cuts, u[:, :k], u[:, k:], z)
    f1 = fitness[p1]
    f2 = fitness[p2]
    better = np.where(f2 < f1, f2, f1)
    worse = np.where(f2 > f1, f2, f1)
    cf = params.comparison_factor
    # the endpoints are taken exactly: 0 * inf would make the threshold
    # NaN and fail every child of an infinite-fitness parent
    with np.errstate(over="ignore"):
        thresholds = better if cf == 1.0 else worse if cf == 0.0 \
            else cf * better + (1.0 - cf) * worse
    return list(children), thresholds.tolist()


def _generation(population, genome_spec, params, mutation_rate, rng,
                evals_left, best_so_far):
    """Advance one generation as a sub-generator.

    Yields lists of genomes and expects one list of their fitnesses per
    batch via send(). A batch holds the children created from the
    current state in every outcome: the max(target_success - accepted,
    new_slots - created) the loop still owes, capped by the evaluations
    left and ending at the child at which the pressure cap fires. The
    batch is drawn and bred by the module's draw rule; with a target
    fitness set it goes out one genome at a time. Either way the
    genomes and the stream are those of creating and evaluating one
    child at a time.

    Returns (next_population, StepStats, best_so_far, nonfinite); when
    the run-level budget, pressure cap, or target fires mid-generation,
    next_population is the unchanged input population and
    stats.stop_reason says why.
    """
    pop_n = params.population_size
    order = sorted(range(len(population)),
                   key=lambda i: population[i].fitness)
    elites = [population[i] for i in order[:params.elitism]]
    new_slots = pop_n - params.elitism
    target_success = min(round(params.success_ratio * pop_n), new_slots)
    cap = params.max_selection_pressure
    target = params.target_fitness
    plan = _draw_plan(genome_spec, params.crossover_kind, pop_n)
    genomes_now = np.stack([ind.genome for ind in population])
    fitness_now = np.array([ind.fitness for ind in population])

    accepted: list[Individual] = []
    fillers: list[Individual] = []
    created = 0
    nonfinite = 0
    stop: str | None = None
    while len(accepted) < target_success or created < new_slots:
        owed = min(max(target_success - len(accepted), new_slots - created),
                   evals_left - created)
        if owed <= 0:
            stop = "budget"
            break
        # the child at which the pressure cap fires is the last one
        if (created + owed) / pop_n > cap:
            owed = next(n for n in range(1, owed + 1)
                        if (created + n) / pop_n > cap)
        start = None if target is None else rng.bit_generator.state
        genomes, thresholds = _breed(
            genomes_now, fitness_now, genome_spec, params, mutation_rate,
            _draw_children(rng, owed, *plan))
        answers = None if target is not None \
            else _fitnesses((yield genomes), genomes)
        for i, (genome, threshold) in enumerate(zip(genomes, thresholds)):
            if answers is None:
                fitness, = _fitnesses((yield [genome]), [genome])
            else:
                fitness = next(answers)
            created += 1
            nonfinite += fitness == math.inf
            child = Individual(genome, fitness)
            if fitness < threshold and len(accepted) < target_success:
                accepted.append(child)
            else:
                fillers.append(child)
            if fitness < best_so_far.fitness:
                best_so_far = child
            if target is not None and fitness <= target:
                stop = "target"
                # the search stops after this child's draws
                rng.bit_generator.state = start
                _draw_children(rng, i + 1, *plan)
                break
            if created / pop_n > cap:
                stop = "pressure"
                break
        if stop is not None:
            break

    pressure = created / pop_n
    stats = StepStats(created, len(accepted), pressure, stop is None, stop)
    if stop is not None:
        return population, stats, best_so_far, nonfinite
    next_population = elites + accepted \
        + fillers[:new_slots - len(accepted)]
    return next_population, stats, best_so_far, nonfinite


def _stream(genome_spec, params, mutation_rate, rng):
    pop_n = params.population_size
    # with a target set, any genome might end the run
    batch = 1 if params.target_fitness is not None else pop_n
    population: list[Individual] = []
    best = None
    nonfinite = 0
    stop = None
    while stop is None and len(population) < pop_n:
        genomes = [genome_spec.random(rng)
                   for _ in range(min(batch, pop_n - len(population)))]
        for genome, fitness in zip(genomes,
                                   _fitnesses((yield genomes), genomes)):
            nonfinite += fitness == math.inf
            ind = Individual(genome, fitness)
            population.append(ind)
            if best is None or ind.fitness < best.fitness:
                best = ind
            if params.target_fitness is not None \
                    and ind.fitness <= params.target_fitness:
                stop = "target"
                break
    evaluations = len(population)

    best_history = [best.fitness]
    pressure_history: list[float] = []
    generations = 0
    while stop is None:
        if evaluations >= params.max_evaluations:
            stop = "budget"
            break
        next_pop, stats, best, bad = yield from _generation(
            population, genome_spec, params, mutation_rate, rng,
            params.max_evaluations - evaluations, best)
        evaluations += stats.created
        nonfinite += bad
        pressure_history.append(stats.pressure)
        if stats.completed:
            generations += 1
            population = next_pop
            best_history.append(
                min(ind.fitness for ind in population))
        else:
            stop = stats.stop_reason

    return RunResult(best, evaluations, generations, stop,
                     tuple(best_history), tuple(pressure_history),
                     tuple(population), nonfinite)


def check_search(genome_spec, params: OsgaParams) -> None:
    """Raise InvalidConfigError unless params validate, genome_spec (a
    genome spec or its class) takes their crossover kind, and their
    budget covers the initial population (else BudgetTooSmallError)."""
    params.validate()
    kinds, kind = genome_spec.crossover_kinds, params.crossover_kind
    if kind not in kinds:
        raise InvalidConfigError(
            f"crossover_kind must be one of {list(kinds)}, got {kind!r}")
    if params.max_evaluations < params.population_size:
        raise BudgetTooSmallError(
            f"budget {params.max_evaluations} cannot evaluate the initial "
            f"population of {params.population_size}")


def resolve_mutation_rate(genome_spec, params: OsgaParams) -> float:
    if params.mutation_rate is not None:
        return params.mutation_rate
    return 1.0 / genome_spec.length


def osga_stream(genome_spec, params: OsgaParams, rng: np.random.Generator):
    """Create the evaluation-request generator for one run.

    Step it with advance: each call answers the previous batch of
    genomes with their fitnesses, in order, and gets the next batch,
    until the stream finishes with the RunResult. The initial population
    is one batch and each step of a generation one more (see
    _generation); with a target fitness set, every batch is one genome.
    """
    check_search(genome_spec, params)
    genome_spec.validate()
    return _stream(genome_spec, params, resolve_mutation_rate(genome_spec,
                                                              params), rng)


def advance(stream, answers=None):
    """Step an evaluation stream by one request.

    answers holds the fitnesses of the batch the stream yielded last, in
    order; pass None to start a fresh stream. Returns (batch, None) while
    the stream wants another batch of genomes evaluated and
    (None, result) once it has finished with result. A batch is a
    non-empty list.
    """
    try:
        return stream.send(answers), None
    except StopIteration as fin:
        return None, fin.value


def drive(stream, evaluate_batch):
    """Run an evaluation stream to completion and return its result.

    evaluate_batch maps each batch, a list of genomes, to their
    fitnesses in the same order."""
    batch, result = advance(stream)
    while batch is not None:
        batch, result = advance(stream, evaluate_batch(batch))
    return result


def per_genome(evaluator):
    """A batch evaluator for drive that calls evaluator(genome) on each
    genome of the batch in order."""
    return lambda batch: list(map(evaluator, batch))


def osga_minimize(evaluator, genome_spec, params: OsgaParams | None = None,
                  seed: int = 0) -> RunResult:
    """Minimize evaluator(genome) over the genome space.

    evaluator maps a genome array to a float fitness, lower better; it
    is called once per genome, in the search's order. All randomness
    comes from the stream substream(seed, "osga"), so equal seeds give
    equal runs; to search on another stream, drive osga_stream.
    """
    params = params or OsgaParams()
    return drive(osga_stream(genome_spec, params, substream(seed, "osga")),
                 per_genome(evaluator))
