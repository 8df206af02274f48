"""The three benchmark workloads: seeded inputs, the timed items, the in-process
CLI suite, and the independent output checks.

Every workload draws its inputs from ``--seed`` with a fixed composition (how
many items of each kind, size and field), so seeds change the values but not
the mix; that keeps run-to-run spread small.  The library only ever receives
the generated inputs, and every output is checked against an answer fixed by
the generator or by the paper, using ``plain`` rather than omegalie.
"""

from __future__ import annotations

import io
import json
import random
import sys
import threading
import time
from fractions import Fraction

import plain
from plain import arith_of

PRIME = 101

# reduced Groebner basis of P = <f1, f2, f3> as printed in the paper (over Q)
REFERENCE_BASIS = (
    "x2*z1 + y3*z1 - x1*z2 - y1*z3",
    "x3*y1 - x1*y3 + x3*z2 - x2*z3 + 1",
    "x2*y1 - x1*y2 - y3*z2 + y2*z3",
    "x1*y2*z1 + y1*y3*z1 - x1*y1*z2 + y3*z1*z2 - y1^2*z3 - y2*z1*z3",
    "x1*x3*y2 - x1*x2*y3 + x2*x3*z2 + x3*y3*z2 - x2^2*z3 - x3*y2*z3 + x2",
)
QUOTIENT_DIMENSIONS = {"P": 6, "P1": 4, "P2": 3, "J": 4}


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


class Item:
    """One call into the library and the check of its output."""

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


class Tally:
    """Attempted and failed items and sub-checks, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, what, error=None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {type(error).__name__}: {error}")


class ThreadStream:
    """Stands in for sys.stdin, sys.stdout or sys.stderr and passes every use
    on to the calling thread's own stream, or to the original one; so a CLI
    run and its twin can run in two threads at once with separate input and
    output."""

    def __init__(self, original):
        self.original = original
        self.local = threading.local()

    def __getattr__(self, name):
        return getattr(getattr(self.local, "stream", self.original), name)


_STREAMS_LOCK = threading.Lock()


def thread_stream(name):
    """The ThreadStream installed as sys.<name> (installed on first use)."""
    with _STREAMS_LOCK:
        stream = getattr(sys, name)
        if not isinstance(stream, ThreadStream):
            stream = ThreadStream(stream)
            setattr(sys, name, stream)
        return stream


def run_cli(lib, argv, stdin_text=None):
    """cli.main in-process with this thread's input and output captured:
    (exit code, stdout text)."""
    streams = {"stdin": io.StringIO(stdin_text or ""), "stdout": io.StringIO(),
               "stderr": io.StringIO()}
    proxies = {name: thread_stream(name) for name in streams}
    for name, stream in streams.items():
        proxies[name].local.stream = stream
    try:
        code = lib.cli.main(argv)
    finally:
        for proxy in proxies.values():
            del proxy.local.stream
    return code, streams["stdout"].getvalue()


def check_report_lines(tally, what, code, text):
    """verify-paper --format machine: exit code 0 and every sub-check ok."""
    checks = 0
    for line in text.splitlines():
        row = json.loads(line)
        if "check" in row:
            checks += 1
            tally.record(f"{what} {row['check']}",
                         None if row["ok"] else CheckFailed(row.get("detail", "")))
    if code != 0 or checks == 0:
        tally.record(what, CheckFailed(f"exit code {code} with {checks} sub-checks"))


def fields(lib):
    return (lib.fields.QQ, lib.fields.PrimeField(PRIME))


def scalar_source(ar, rng, span, den):
    """Random base payloads: small fractions over Q, uniform over F_p."""
    if ar.p is None:
        return lambda: Fraction(rng.randint(-span, span), rng.randint(1, den))
    return lambda: rng.randrange(ar.p)


def payload_rows(matrix):
    return [[matrix[i, j].value for j in range(matrix.cols)] for i in range(matrix.rows)]


def payload_algebra(ar, alg):
    """(table, omega) of a library algebra as payloads coerced by ar."""
    table = {key: [ar.coerce(x.value) for x in vec] for key, vec in alg.sc.entries().items()}
    omega = [[ar.coerce(x) for x in row] for row in payload_rows(alg.omega.matrix)]
    return table, omega


def verify_paper_piece(lib, argv):
    """A verify-paper invocation as a suite piece: (tally) -> CPU seconds."""
    def piece(tally):
        start = time.thread_time()
        code, text = run_cli(lib, argv)
        seconds = time.thread_time() - start
        check_report_lines(tally, " ".join(argv), code, text)
        return seconds
    return piece


def order_rng(name):
    """The generator that shuffles a workload's items.  It ignores the seed,
    so the item in a given place has the same kind, size and field for every
    seed, and only its values change; an item and its pinned twin then take
    about the same time."""
    return random.Random(f"{name}:order")


class Workload:
    """A workload: `items` for the timed batch, `warmup`, the CLI suite, and
    `suite_share`, the share of a run's time given to the suite."""

    name = ""
    warmup_items = 10
    suite_runs = 2     # every suite piece runs at least this many times in a run
    min_batches = 3    # and the batch at least this many times

    def suite_pieces(self):
        """The in-process CLI suite as a list of pieces, each (tally) -> the
        CPU seconds of the calling thread that the piece took."""
        raise NotImplementedError

    def fixed_checks(self, tally):
        """Checks of set-up results that the paper fixes (untimed)."""

    def warm_up(self):
        """Call the first items in generation order, which is the same for
        every seed, so warm-up work does not vary with the seed."""
        for item in self.warmup:
            item.call()


# ---------------------------------------------------------------------------
# paper: verify-paper plus membership queries against cached bases
# ---------------------------------------------------------------------------

class Paper(Workload):
    name = "paper"
    suite_share = 0.5
    suite_runs = 1     # one pass of verify-paper takes about 10 s
    queries_per_ideal = 40

    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(f"paper:{seed}")
        gb = lib.groebner
        self.ideals = []
        for field in fields(lib):
            ring = lib.variety.structure_ring(field)
            p = gb.Ideal(ring, [gb.parse_polynomial(ring, t) for t in REFERENCE_BASIS[:3]])
            p1, p2 = lib.variety.x1_component_ideals(field)
            for name, ideal in (("P", p), ("P1", p1), ("P2", p2)):
                ideal.groebner_basis()  # cached for every later query
                self.ideals.append((field, name, ideal))
        self.items = []
        for field, name, ideal in self.ideals:
            for q in range(self.queries_per_ideal):
                member = self._member(rng, ideal)
                if q % 2:
                    self.items.append(self._query(f"{name} non-member",
                                                  member + ideal.ring.const(rng.randint(1, 5)),
                                                  ideal, False))
                else:
                    self.items.append(self._query(f"{name} member", member, ideal, True))
        self.warmup = self.items[:self.warmup_items]
        order_rng(self.name).shuffle(self.items)

    @staticmethod
    def _member(rng, ideal):
        """A random polynomial combination of the generators."""
        ring = ideal.ring
        variables = ring.gens()
        out = ring.zero()
        for gen in ideal.gens:
            mult = ring.const(rng.randint(-3, 3))
            for _ in range(2):
                mult = mult + (ring.const(rng.randint(1, 3)) * rng.choice(variables)
                               * rng.choice(variables))
            out = out + mult * gen
        return out

    def _query(self, kind, poly, ideal, expected):
        lib = self.lib

        def check(answer):
            expect(answer is expected, f"membership answered {answer}, expected {expected}")
        return Item(kind, lambda: lib.groebner.ideal_member(poly, ideal), check)

    def suite_pieces(self):
        """verify-paper, one section and field per piece (fixed by the paper;
        it ignores the seed)."""
        return [verify_paper_piece(self.lib, ["verify-paper", "--section", section,
                                              "--field", field.encode(),
                                              "--format", "machine"])
                for section in "345" for field in fields(self.lib)]

    def fixed_checks(self, tally):
        gb = self.lib.groebner
        for field, name, ideal in self.ideals:
            try:
                dim = gb.quotient_dimension(ideal)
                expect(dim == QUOTIENT_DIMENSIONS[name],
                       f"dim {name} = {dim}, paper says {QUOTIENT_DIMENSIONS[name]}")
                error = None
            except Exception as exc:  # a raising check is a failed check
                error = exc
            tally.record(f"quotient dimension of {name} over {field!r}", error)
            if name == "P":
                tally.record(f"reduced basis of P over {field!r}",
                             self._basis_error(field, ideal))
        for field in fields(self.lib):
            try:
                j = self.lib.variety.x1_configuration_ideal(field).ideal()
                dim = gb.quotient_dimension(j)
                expect(dim == QUOTIENT_DIMENSIONS["J"], f"dim J = {dim}")
                error = None
            except Exception as exc:
                error = exc
            tally.record(f"quotient dimension of J over {field!r}", error)

    def _basis_error(self, field, ideal):
        """The paper's five polynomials as text; over F_p a coefficient -1 is
        printed as p - 1."""
        p = getattr(field, "p", None)
        want = [t if p is None else t.replace(" - ", f" + {p - 1}*") for t in REFERENCE_BASIS]
        got = [self.lib.groebner.format_polynomial(g) for g in ideal.groebner_basis()]
        if sorted(got) != sorted(want):
            return CheckFailed(f"basis {got}")
        return None


# ---------------------------------------------------------------------------
# classify: orbit images, generic algebras, base-changed copies, iso pairs
# ---------------------------------------------------------------------------

class Planted:
    """What the generator fixed: the family, its parameter, or for a generic
    algebra the determinant of its z-adjoint."""

    __slots__ = ("kind", "alpha", "det", "nonsquare")

    def __init__(self, kind, alpha=None, det=None, nonsquare=False):
        self.kind = kind
        self.alpha = alpha
        self.det = det
        self.nonsquare = nonsquare


class Classify(Workload):
    name = "classify"
    suite_share = 0.5
    suite_runs = 3
    min_batches = 2
    orbit_rounds = 10         # each of A, B, D, C per round and field
    generic_nonsquare = 34    # per field
    generic_square = 16       # per field
    iso_per_field = 10

    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(f"classify:{seed}")
        singles, pairs = [], []
        for field in fields(lib):
            ar = arith_of(field)
            sources = [self._orbit_source(field, kind) for kind in "ABDC"]
            made = [self._orbit_source(field, kind)(rng) for _ in range(self.orbit_rounds)
                    for kind in "ABDC"]
            made += [self._generic(field, ar, rng, True) for _ in range(self.generic_nonsquare)]
            made += [self._generic(field, ar, rng, False) for _ in range(self.generic_square)]
            for t, (alg, planted) in enumerate(made):
                if t % 3 == 2:
                    alg = self._gl3(field, ar, rng, alg)
                singles.append(self._classify_item(alg, planted))
            for t in range(self.iso_per_field):
                if t % 2:
                    base, _ = self._generic(field, ar, rng, t % 4 == 1)
                else:
                    base, _ = sources[t % 4](rng)
                a1 = self._gl3(field, ar, rng, base)
                if t % 2:
                    a2 = self._gl3(field, ar, rng, base)
                else:
                    g = lib.classify3.random_stabilizer_element(field, rng)
                    a2 = lib.omega.transform(g, base)
                pairs.append(self._iso_item(a1, a2))
        self.warmup = singles[:self.warmup_items]
        order = order_rng(self.name)
        order.shuffle(singles)
        order.shuffle(pairs)
        # every tenth item is an isomorphism test
        self.items = []
        for t, item in enumerate(singles):
            self.items.append(item)
            if t % 9 == 8 and pairs:
                self.items.append(pairs.pop())
        self.items += pairs

    def _orbit_source(self, field, kind):
        c3 = self.lib.classify3

        def make(rng):
            if kind == "C":
                alpha = c3.random_nonzero(field, rng)
                label, planted = c3.label_c(alpha), Planted("C", alpha=alpha.value)
            else:
                label = {"A": c3.label_a, "B": c3.label_b, "D": c3.label_d}[kind]()
                planted = Planted(kind)
            g = c3.random_stabilizer_element(field, rng)
            return self.lib.omega.transform(g, c3.canonical_algebra(label, field)), planted
        return make

    def _generic(self, field, ar, rng, nonsquare):
        """[x,y] = z with a random trace -1 z-adjoint whose discriminant is a
        non-square (needs an extension) or a nonzero square, as asked."""
        rand = scalar_source(ar, rng, 6, 3)
        while True:
            b0, b1, c0 = rand(), rand(), rand()
            c1 = ar.sub(ar.neg(ar.one), b0)
            det = ar.sub(ar.mul(b0, c1), ar.mul(b1, c0))
            disc = ar.sub(ar.one, ar.mul(ar.base(4), det))
            if ar.is_zero(det) or ar.is_zero(disc):
                continue
            if (plain.base_sqrt(ar, disc) is None) == nonsquare:
                break
        lib = self.lib
        e = field.elem
        sc = lib.omega.StructureConstants(field, 3, {
            (0, 1): (0, 0, 1), (0, 2): (e(b0), e(b1), 0), (1, 2): (e(c0), e(c1), 0)})
        form = lib.linalg.SkewForm(lib.linalg.standard_j(field, 3, 2))
        return (lib.omega.OmegaAlgebra(field, sc, form),
                Planted("generic", det=det, nonsquare=nonsquare))

    def _gl3(self, field, ar, rng, alg):
        """A random GL3 base change, so classify must reduce the form first."""
        g = plain.random_invertible(ar, 3, scalar_source(ar, rng, 3, 2))
        lib = self.lib
        return lib.omega.change_basis(
            lib.omega.GroupElement(lib.linalg.Matrix.from_rows(field, g)), alg)

    def _classify_item(self, alg, planted):
        lib = self.lib

        def check(res):
            ar = arith_of(res.field)
            label = res.label
            base = arith_of(alg.field)
            if planted.kind == "generic":
                expect(label.kind == "C", f"generic algebra labelled {label}")
                alpha = label.alpha.value
                if planted.nonsquare:
                    expect(res.extension is not None
                           and [x.value for x in res.extension] == [planted.det, base.one],
                           "missing or wrong extension for a non-square discriminant")
                    root = ar.add(ar.add(ar.mul(alpha, alpha), alpha), ar.coerce(planted.det))
                    expect(ar.is_zero(root), "label is not a root of t^2 + t + det")
                    expect(lib.classify3.c_pair_representative(label.alpha) == label.alpha,
                           "label is not the pair representative")
                else:
                    expect(res.extension is None, "extension for a square discriminant")
                    disc = base.sub(base.one, base.mul(base.base(4), planted.det))
                    root = base.mul(base.sub(plain.base_sqrt(base, disc), base.one),
                                    base.inv(base.base(2)))
                    want = lib.classify3.c_pair_representative(alg.field.elem(root))
                    expect(alpha == want.value, f"label {label}, expected C:{want.encode()}")
            else:
                expect(res.extension is None, "extension for an orbit image")
                expect(label.kind == planted.kind, f"labelled {label}, planted {planted.kind}")
                if planted.kind == "C":
                    want = lib.classify3.c_pair_representative(alg.field.elem(planted.alpha))
                    expect(label.alpha.value == want.value,
                           f"label {label}, expected C:{want.encode()}")
            target = plain.canonical_table(ar, label.kind,
                                           None if label.alpha is None else label.alpha.value)
            reason = plain.carries(ar, payload_rows(res.witness.matrix),
                                   payload_algebra(ar, alg), target, 3)
            expect(reason is None, f"witness: {reason}")
        return Item(f"classify {planted.kind}",
                    lambda: lib.classify3.classify(alg, allow_extension=True), check)

    def _iso_item(self, a1, a2):
        lib = self.lib

        def check(out):
            expect(hasattr(out, "matrix"), f"copies reported non-isomorphic: {out}")
            ar = arith_of(out.matrix.field)
            reason = plain.carries(ar, payload_rows(out.matrix), payload_algebra(ar, a1),
                                   payload_algebra(ar, a2), 3)
            expect(reason is None, f"iso witness: {reason}")
        return Item("iso", lambda: lib.classify3.iso_witness(a1, a2, allow_extension=True),
                    check)

    def suite_pieces(self):
        """The paper's classification section, one field per piece."""
        return [verify_paper_piece(self.lib, ["verify-paper", "--section", "4",
                                              "--field", field.encode(),
                                              "--format", "machine"])
                for field in fields(self.lib)]


# ---------------------------------------------------------------------------
# forms: algebra files through check, and planted-rank skew forms
# ---------------------------------------------------------------------------

LIE_ALGEBRAS = ("h3", "b2", "gl2", "h5", "n4", "b3")


def lie_table(ar, name):
    """Heisenberg and matrix Lie algebras (their form is zero)."""
    z, o = ar.zero, ar.one
    if name == "h3":
        return 3, {(0, 1): [z, z, o]}
    if name == "h5":
        return 5, {(0, 2): [z, z, z, z, o], (1, 3): [z, z, z, z, o]}
    units = {"b2": [(0, 0), (0, 1), (1, 1)],
             "gl2": [(0, 0), (0, 1), (1, 0), (1, 1)],
             "n4": [(i, j) for i in range(4) for j in range(i + 1, 4)],
             "b3": [(i, j) for i in range(3) for j in range(i, 3)]}[name]
    return len(units), plain.matrix_lie(ar, units)


def algebra_specs(ar, rng):
    """(kind, n, table, omega, form rank) for the check items of one field."""
    specs = []
    for kind in "ABCD":
        alpha = None
        if kind == "C":
            alpha = ar.zero
            while ar.is_zero(alpha):
                alpha = scalar_source(ar, rng, 6, 3)()
        table, omega = plain.canonical_table(ar, kind, alpha)
        g = plain.random_invertible(ar, 3, scalar_source(ar, rng, 3, 2))
        table, omega = plain.move(ar, table, omega, g)
        specs.append((f"family {kind}", 3, table, omega, 2))
    rand = scalar_source(ar, rng, 6, 3)
    z, o = ar.zero, ar.one
    for t in range(6):
        # points of the two components of the 4-dimensional configuration ideal
        if t % 2 == 0:
            x3, y1, y3, z3 = rand(), rand(), rand(), rand()
            xs, ys, zs = [z, ar.neg(z3), x3, ar.neg(o)], [y1, z3, y3, o], [z, z, z3, z]
        else:
            x3, x4, z3 = rand(), rand(), rand()
            xs, ys, zs = [z, ar.mul(x4, z3), x3, x4], [z, z3, z, o], [z, z, z3, z]
        table = {(0, 1): [z, o, z, z], (1, 2): [z, z, o, z],
                 (0, 3): xs, (1, 3): ys, (2, 3): zs}
        specs.append(("config point", 4, table, plain.block_j(ar, 4, 2), 2))
    for name in LIE_ALGEBRAS:
        n, table = lie_table(ar, name)
        zero_form = [[z] * n for _ in range(n)]
        g = plain.random_invertible(ar, n, scalar_source(ar, rng, 3, 2))
        table, omega = plain.move(ar, table, zero_form, g)
        specs.append((f"lie {name}", n, table, omega, 0))
    return specs


def algebra_text(field, ar, n, table, omega):
    return json.dumps({
        "field": field.encode(),
        "dim": n,
        "omega": [[ar.encode(x) for x in row] for row in omega],
        "brackets": {f"{i},{j}": [ar.encode(x) for x in table.get((i, j), [ar.zero] * n)]
                     for i in range(n) for j in range(i + 1, n)},
    })


def congruence_error(ar, form, q, rank):
    """None when q^t form q is the block form of the given rank and det q != 0."""
    n = len(form)
    if plain.matmul(ar, plain.matmul(ar, plain.transpose(q), form), q) \
            != plain.block_j(ar, n, rank):
        return "Q^t A Q is not the block form"
    if ar.is_zero(plain.det(ar, q)):
        return "Q is singular"
    return None


class Forms(Workload):
    name = "forms"
    suite_share = 0.25
    min_batches = 1    # one batch takes about 7 s
    suite_runs = 3
    sizes = range(2, 11)
    copies = 2  # of every kind, size and rank, so a seed's random values average out

    def __init__(self, lib, seed):
        self.lib = lib
        rng = random.Random(f"forms:{seed}")
        self.items = []
        for _ in range(self.copies):
            for field in fields(lib):
                ar = arith_of(field)
                for kind, n, table, omega, _ in algebra_specs(ar, rng):
                    self.items.append(self._check_item(
                        kind, algebra_text(field, ar, n, table, omega), ar, omega))
                for n in self.sizes:
                    for rank in range(0, n + 1, 2):
                        p = plain.random_invertible(ar, n, scalar_source(ar, rng, 3, 2))
                        form = plain.matmul(ar, plain.matmul(ar, plain.transpose(p),
                                                             plain.block_j(ar, n, rank)), p)
                        self.items.append(self._reduce_item(field, ar, form, rank))
        self.warmup = self.items[:self.warmup_items]
        order_rng(self.name).shuffle(self.items)
        suite_rng = random.Random("forms-suite")  # fixed: the suite ignores the seed
        self.suite_inputs = []
        for field in fields(lib):
            ar = arith_of(field)
            for _, n, table, omega, rank in algebra_specs(ar, suite_rng):
                self.suite_inputs.append((ar, algebra_text(field, ar, n, table, omega),
                                          omega, rank))

    def _check_item(self, kind, text, ar, omega):
        lib = self.lib

        def call():
            alg = lib.omega.algebra_from_json(text)
            report = lib.omega.validate(alg)
            return report.ok, lib.omega.recover_omega(alg.sc) if report.ok else None

        def check(out):
            ok, recovered = out
            expect(ok, "bracket identity reported broken")
            expect(payload_rows(recovered.matrix) == omega,
                   "recovered form differs from the declared one")
        return Item(f"check {kind}", call, check)

    def _reduce_item(self, field, ar, form, rank):
        lib = self.lib
        skew = lib.linalg.SkewForm(lib.linalg.Matrix.from_rows(field, form))

        def check(res):
            expect(res.rank == rank, f"rank {res.rank}, planted {rank}")
            reason = congruence_error(ar, form, payload_rows(res.q), rank)
            expect(reason is None, reason)
        return Item(f"omega-reduce n={len(form)}",
                    lambda: lib.linalg.skew_congruence_reduce(skew), check)

    def suite_pieces(self):
        """check and omega-reduce through the CLI, one algebra text per piece."""
        return [self._cli_piece(*spec) for spec in self.suite_inputs]

    def _cli_piece(self, ar, text, omega, rank):
        lib = self.lib

        def piece(tally):
            start = time.thread_time()
            code1, out1 = run_cli(lib, ["check", "-", "--format", "machine"], text)
            code2, out2 = run_cli(lib, ["omega-reduce", "-", "--format", "machine"], text)
            seconds = time.thread_time() - start
            try:
                row = json.loads(out1)
                expect(code1 == 0 and row["valid"] and row["form_recovered"],
                       f"check exit {code1}: {out1.strip()}")
                row = json.loads(out2)
                expect(code2 == 0 and row["rank"] == rank, f"omega-reduce: {out2.strip()}")
                q = [[ar.base(Fraction(x)) for x in line] for line in row["q"]]
                reason = congruence_error(ar, omega, q, rank)
                expect(reason is None, reason)
                error = None
            except Exception as exc:  # a raising check is a failed check
                error = exc
            tally.record("cli check/omega-reduce", error)
            return seconds
        return piece


WORKLOADS = {w.name: w for w in (Paper, Classify, Forms)}
