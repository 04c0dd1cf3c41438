"""Acceptance gate.  One check per advertised guarantee; each test prints a
single [acceptance] PASS/FAIL line and the test name doubles as the criterion
label.  Bounds and sizes are pinned here on purpose: do not loosen them.

test_c6a_germ_deviation_bound pins the parabolic germ at i = 1000 (radius 2,
grid 64) to dev < 4/i, and to exact equality with the closed form
2(2i-1)/((i+1)^2-2).  Conjugating x/(1+x) by x -> 1/i + x/(i(i+1)) gives the
rescaled deviation -x(2i+1+x)/((i+1)^2+x) on the window [-3, 0]; clipped to
radius 2 its largest size is at the grid point x = -2.  That value is below
4/i for every i >= 1 and i*dev -> 4, since f'(p) - 1 ~ -2p over a window of
radius 2 in units of the displacement, so no bound like 1/i is attainable at
radius 2.  This is the README's 4/i rate; see README.
"""

import json
import os
import random
from fractions import Fraction

from helpers import (
    ExpandedRows,
    ZZGroupAction,
    displacement_growth_check,
    hull_displacement,
    pl_compose,
    rand_cover,
    rand_interior,
    rand_lift,
    rand_plmap,
    rand_rat,
    rand_word_letters,
    slope_character,
    slope_quotient_oracle,
    translation_deviation,
    witness_entries,
    witness_support,
    zz_expr,
)
from nonsmooth.cli import main
from nonsmooth.cover import (
    COVER_BASEPOINT,
    TORUS_A,
    TORUS_B,
    CoverPoint,
    compactify,
    cover_cmp,
)
from nonsmooth.groupact import (
    UNIT_INTERVAL,
    MarkedAction,
    Word,
    commutator,
    compactified_action,
    parse_word,
    punctured_torus_action,
    word_eval,
)
from nonsmooth.obstruction import certify_domination, zz_witness
from nonsmooth.plmaps import LEFT, RIGHT, anchor, cell_shift
from nonsmooth.projline import GREATER, LESS, MoebiusMap, ProjPoint, bracket_roots, fixed_quadratic
from nonsmooth.renorm import (
    RescaledSystem,
    build_windows,
    fixed_point_in_window,
    germ_action,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
HALF = Fraction(1, 2)


def verdict(label, ok, detail=""):
    line = "[acceptance] %s: %s" % (label, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


def torus_commutator_lift():
    act = punctured_torus_action()
    a, b = act.maps
    return act, a.compose(b).compose(a.inverse()).compose(b.inverse())


def test_c1_commutator_parabolicity():
    def matmul(m, n):
        return ((m[0][0] * n[0][0] + m[0][1] * n[1][0],
                 m[0][0] * n[0][1] + m[0][1] * n[1][1]),
                (m[1][0] * n[0][0] + m[1][1] * n[1][0],
                 m[1][0] * n[0][1] + m[1][1] * n[1][1]))

    a = ((1, 1), (1, 2))
    b = ((1, -1), (-1, 2))
    a_inv = ((2, -1), (-1, 1))
    b_inv = ((2, 1), (1, 1))
    oracle = matmul(matmul(a, b), matmul(a_inv, b_inv))
    ok = oracle == ((-1, 0), (-6, -1))
    ok = ok and oracle[0][0] + oracle[1][1] == -2

    comm = (TORUS_A.compose(TORUS_B)
            .compose(TORUS_A.inverse()).compose(TORUS_B.inverse()))
    ok = ok and comm == MoebiusMap(oracle[0][0], oracle[0][1],
                                   oracle[1][0], oracle[1][1])
    ok = ok and comm.trace() == -2
    # the fixed quadratic has the double root 0 and nothing else
    roots = bracket_roots(fixed_quadratic(comm))
    ok = ok and roots == [(Fraction(0), Fraction(0))]
    origin = ProjPoint.from_affine(0)
    ok = ok and comm.apply(origin) == origin
    ok = ok and all(comm.apply(ProjPoint.from_affine(t))
                    != ProjPoint.from_affine(t)
                    for t in (1, -1, Fraction(3, 2)))
    verdict("c1 commutator parabolicity", ok,
            "trace -2, unique fixed point t=0")


def test_c2_commutator_unit_displacement():
    act = punctured_torus_action()
    comm = parse_word("[a,b]")
    ok = act.meta == {"orientation_normalization": "identity"}
    ok = ok and word_eval(act, comm, COVER_BASEPOINT) == COVER_BASEPOINT.deck(1)
    x = COVER_BASEPOINT
    for n in range(1, 51):
        x = word_eval(act, comm, x)
        ok = ok and x == COVER_BASEPOINT.deck(n)
    verdict("c2 commutator unit displacement", ok,
            "[a,b]^n(p) = p + n for n <= 50")


def test_c3_displacement_growth():
    _, comm = torus_commutator_lift()
    rng = random.Random(20260803)
    pts = [CoverPoint(ProjPoint.from_affine(rand_rat(rng)),
                      rng.randint(-4, 4)) for _ in range(100)]
    ok = all(displacement_growth_check(comm, z, n)
             for z in pts for n in range(1, 21))
    verdict("c3 displacement growth", ok,
            "[a,b]^n(z) > z + n - 1 for n <= 20 at 100 points")


def test_c4_domination_certificate():
    act = punctured_torus_action()
    cert = certify_domination(act, parse_word("[a,b]^2"),
                              (COVER_BASEPOINT, parse_word("[a,b]")), 50)
    ok = cert.valid and cert.structural
    ok = ok and cert.flags == ("StructurallyExtended",)
    rows = ExpandedRows(cert.rows)
    ok = ok and len(rows) == 4 * 51
    # re-check every comparison from the stored points
    ok = ok and all(cover_cmp(r.moved, r.dominator) == LESS for r in rows)
    ok = ok and cert.interleaving is not None
    verdict("c4 domination certificate", ok,
            "depth 50, every g^{+-1}(p_m) < [a,b]^2(p_m), structural flag set")


def test_c5_zz_witness():
    w = zz_witness(16)
    entries = witness_entries(w)
    ok = w.valid and w.anchors_checked == (-18, 18)
    ok = ok and len(entries) == 33
    ok = ok and all(e.slope < HALF for e in entries)
    # minimality: the rejected slope one power earlier was still >= 1/2
    ok = ok and all(e.rejected_slope is None or e.rejected_slope >= HALF
                    for e in entries)
    product = ZZGroupAction(witness_support(w))
    ok = ok and all(product.apply(anchor(j)) == anchor(j)
                    for j in range(-18, 19))
    # difference-quotient oracle on a sample of cells
    from nonsmooth.plmaps import midpoint_pair
    for e in (entries[0], entries[16], entries[32]):
        m = zz_expr(ZZGroupAction({e.index: e.power}))
        p = Fraction(*midpoint_pair(e.index))
        got = max(slope_quotient_oracle(m, p, LEFT),
                  slope_quotient_oracle(m, p, RIGHT))
        ok = ok and got == e.slope
    verdict("c5 zz witness", ok,
            "N=16 cap=64: slopes < 1/2, anchors -18..18 fixed")


def parabolic_system(i, grid=64):
    act = germ_action()
    w = build_windows(act, [Fraction(1, i)])[0]
    return RescaledSystem(w, act, grid)


def test_c6a_germ_deviation_bound():
    i = 1000
    dev = translation_deviation(parabolic_system(i, 64), 2)
    closed_form = Fraction(2 * (2 * i - 1), (i + 1) ** 2 - 2)
    ok = dev < Fraction(4, i) and dev == closed_form
    verdict("c6a germ deviation bound", ok,
            "i=1000 radius 2 grid 64: deviation %s ~ 4/%.1f"
            % (dev, 4 / dev))


def test_c6a_germ_deviation_monotone():
    devs = [translation_deviation(parabolic_system(i, 64), 2)
            for i in (10, 100, 1000)]
    ok = devs[0] >= devs[1] >= devs[2] > 0
    verdict("c6a germ deviation monotone", ok,
            "deviations at i=10,100,1000: %s" % ", ".join(map(str, devs)))


def test_c6b_torus_window_dichotomy():
    act = compactified_action(punctured_torus_action())
    pts = [compactify(COVER_BASEPOINT.deck(n)) for n in range(51)]
    comm = parse_word("[a,b]")
    ok = True
    for w in build_windows(act, pts):
        rs = RescaledSystem(w, act, 64)
        brackets = fixed_point_in_window(rs)
        ok = ok and any(b is not None for b in brackets.values())
        ok = ok and hull_displacement(rs, comm) >= 1
    verdict("c6b torus window dichotomy", ok,
            "windows n <= 50: generator bracket present, "
            "commutator moves >= 1 hull unit")


def test_c7a_word_evaluation_homomorphism():
    act = punctured_torus_action()
    rng = random.Random(7001)
    ok = True
    for _ in range(1000):
        u = Word(rand_word_letters(rng))
        v = Word(rand_word_letters(rng))
        z = rand_cover(rng)
        ok = ok and word_eval(act, u * v, z) == word_eval(
            act, u, word_eval(act, v, z))
    verdict("c7a word evaluation homomorphism", ok, "1000 cases")


def test_c7b_deck_equivariance_and_order():
    rng = random.Random(7002)
    ok = True
    for _ in range(1000):
        f = rand_lift(rng)
        z = rand_cover(rng)
        k = rng.randint(-4, 4)
        ok = ok and f.apply(z.deck(k)) == f.apply(z).deck(k)
        z2 = rand_cover(rng)
        ok = ok and cover_cmp(f.apply(z), f.apply(z2)) == cover_cmp(z, z2)
    verdict("c7b deck equivariance and order preservation", ok, "1000 cases")


def test_c7c_commutator_lift_independence():
    act, comm0 = torus_commutator_lift()
    a, b = act.maps
    rng = random.Random(7003)
    ok = True
    for _ in range(1000):
        fa = a.deck(rng.randint(-2, 2))
        fb = b.deck(rng.randint(-2, 2))
        c = fa.compose(fb).compose(fa.inverse()).compose(fb.inverse())
        ok = ok and c == comm0
        z = rand_cover(rng)
        ok = ok and c.apply(z) == comm0.apply(z)
    verdict("c7c commutator lift independence", ok,
            "deck shifts j,k in -2..2, 1000 cases")


def test_c7d_pl_composition_inversion():
    rng = random.Random(7004)
    ok = True
    for _ in range(1000):
        f = rand_plmap(rng)
        g = rand_plmap(rng)
        x = rand_interior(rng)
        ok = ok and pl_compose(f, g).apply(x) == f.apply(g.apply(x))
        ok = ok and f.inverse().apply(f.apply(x)) == x
        ok = ok and pl_compose(g, g.inverse()).apply(x) == x
    verdict("c7d pl composition and inversion", ok, "1000 cases")


def test_c7e_zz_additivity():
    rng = random.Random(7005)
    ok = True
    for _ in range(1000):
        f = {rng.randint(-8, 8): rng.randint(-3, 3)
             for _ in range(rng.randint(0, 4))}
        g = {rng.randint(-8, 8): rng.randint(-3, 3)
             for _ in range(rng.randint(0, 4))}
        total = {i: f.get(i, 0) + g.get(i, 0) for i in set(f) | set(g)}
        zf, zg, zt = ZZGroupAction(f), ZZGroupAction(g), ZZGroupAction(total)
        ok = ok and zf.compose(zg) == zt
        x = rand_interior(rng)
        ok = ok and zf.apply(zg.apply(x)) == zt.apply(x)
    verdict("c7e zz additivity", ok, "Z_f o Z_g = Z_{f+g}, 1000 cases")


def test_c7f_slope_character_multiplicative():
    act = MarkedAction(("s", "d"), (cell_shift(0, 1), cell_shift(0, 2)),
                       UNIT_INTERVAL)
    chi = slope_character(act, Fraction(1, 2))
    rng = random.Random(7006)
    ok = True
    for _ in range(1000):
        u = Word(rand_word_letters(rng))
        v = Word(rand_word_letters(rng))
        ok = ok and chi.of_word(u * v, act.names) == (
            chi.of_word(u, act.names) * chi.of_word(v, act.names))
        ok = ok and chi.of_word(commutator(u, v), act.names) == 1
    verdict("c7f slope character multiplicative", ok,
            "sigma = 1 on commutators, 1000 cases")


def strip_header(text):
    return "\n".join(line for line in text.splitlines()
                     if '"generated_at"' not in line)


def test_c8_golden_reports(capsys, tmp_path):
    ok = True
    for target, args, golden in (
            ("punctured-torus", ["--depth", "50"],
             "certify-punctured-torus.json"),
            ("zz", ["--truncation", "16"], "certify-zz.json")):
        outs = []
        for run in range(2):
            path = tmp_path / ("%s-%d.json" % (target, run))
            code = main(["certify", target, *args, "--out", str(path)])
            capsys.readouterr()
            ok = ok and code == 0
            outs.append(path.read_text(encoding="utf-8"))
        ok = ok and strip_header(outs[0]) == strip_header(outs[1])
        frozen = open(os.path.join(GOLDEN, golden), encoding="utf-8").read()
        ok = ok and strip_header(outs[0]) == strip_header(frozen)
        ok = ok and json.loads(outs[0])["verdict"] == "certified"
    verdict("c8 golden reports", ok,
            "both certify targets byte-identical modulo timestamp")


def test_c9_torus_group_free():
    """The torus group is free, hence locally indicable.

    Table-tennis lemma (de la Harpe, Topics in Geometric Group Theory, II):
    on the projective line take the open arcs J1 = (-inf,-1), J2 = (-1,0),
    J3 = (0,1), J4 = (1,inf), and put X_A = J1 u J3, X_B = J2 u J4, which
    are disjoint.  A and B have determinant 1 and send two cusps each to
    cusps: A(-1) = 0, A(inf) = 1, A^-1(0) = -1, A^-1(1) = inf, and B(1) = 0,
    B(inf) = -1, B^-1(0) = 1, B^-1(-1) = inf.  An orientation-preserving
    homeomorphism of the circle maps a closed arc onto the closed arc
    between the images of its ends, so A maps the complement of J1 onto the
    closure of J3, A^-1 the complement of J3 onto the closure of J1, B the
    complement of J4 onto the closure of J2 and B^-1 the complement of J2
    onto the closure of J4.  Each open arc involved lies in the interior of
    the complement it is mapped from, so A^n(X_B) lies in X_A and B^n(X_A)
    in X_B for every n != 0.  A reduced word in A and B that is not a power
    of one letter is conjugate to one that begins and ends with a power of
    A; it maps X_B into X_A, away from X_B, so it is not the identity, and
    neither is a nonzero power of one letter.  So <A, B> is free on A and
    B.  The lifted group maps onto it with a -> A and b -> B, so a word that
    acts trivially as lifts acts trivially as Moebius maps and is the empty
    word: the lifted group, and its compactification on (0,1), are free of
    rank 2.  Every nontrivial finitely generated subgroup of a free group is
    free of positive rank (Nielsen-Schreier) and maps onto Z.

    The test checks the premises exactly and then the containments they
    imply on seeded rational points for the powers +-1 to +-3.
    """
    def arc(u):
        # the index of the open arc J1..J4 holding u; None at a cusp or inf
        if u.is_infinite or u.affine() in (-1, 0, 1):
            return None
        return 1 + sum(u.affine() > cusp for cusp in (-1, 0, 1))

    def pt(t):
        return ProjPoint.infinity() if t is None else ProjPoint.from_affine(t)

    a_inv, b_inv = TORUS_A.inverse(), TORUS_B.inverse()
    ok = all(m.a * m.d - m.b * m.c == 1 for m in (TORUS_A, TORUS_B))
    for m, t, image in ((TORUS_A, -1, 0), (TORUS_A, None, 1),
                        (a_inv, 0, -1), (a_inv, 1, None),
                        (TORUS_B, 1, 0), (TORUS_B, None, -1),
                        (b_inv, 0, 1), (b_inv, -1, None)):
        ok = ok and m.apply(pt(t)) == pt(image)

    def powers(m):
        # m^n for n = +-1, +-2, +-3
        out, p, q = [], m, m.inverse()
        for _ in range(3):
            out += [p, q]
            p, q = p.compose(m), q.compose(m.inverse())
        return out

    ping = {1: powers(TORUS_B), 3: powers(TORUS_B),
            2: powers(TORUS_A), 4: powers(TORUS_A)}
    rng = random.Random(9009)
    pairs = 0
    while pairs < 30_000:
        u = ProjPoint.from_affine(rand_rat(rng, 60))
        k = arc(u)
        if k is None:
            continue
        # a point of X_A goes into X_B under B's powers, and back again
        # under A's; the arcs of X_A have odd index
        for m in ping[k]:
            image = arc(m.apply(u))
            ok = ok and image is not None and image % 2 != k % 2
            pairs += 1
    verdict("c9 torus group free", ok,
            "eight cusp images; %d (point, power) pairs ping-pong" % pairs)
