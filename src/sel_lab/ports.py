"""The classic routines the package runs, ported to Python floats.

DOP853's tables (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, 1993, II.10, as scipy's `DOP853` class holds them), Brent's
root finder as scipy's `brentq` runs it and Brent's bounded minimiser as
scipy's `minimize_scalar(method="bounded")` runs it.  Each does only what
the package asks of it, in the same float operations in the same order,
so its results are scipy's bit for bit (tests/test_ports.py holds them
against scipy).  None of them imports scipy.  Quadrature has no port:
integrate_finite bisects the package's own 15-point Gauss-Kronrod panel
(numerics).
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# DOP853: Dormand-Prince 8(5,3), 12 stages, error estimator of order 7
# ---------------------------------------------------------------------------

DOP853_STAGES = 12
DOP853_ERROR_ORDER = 7
# The nodes c_2, ..., c_12 and the rows a_2, ..., a_12 of the stage matrix,
# each up to its last nonzero entry.
DOP853_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
            0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
            0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
DOP853_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
# The weights of the eighth-order solution over the 12 stages, and of the
# fifth- and third-order error estimates over them and the new slope.
DOP853_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
            1.8915178993145003, -5.801203960010585, 0.3111643669578199,
            -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
DOP853_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
             -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
             0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
DOP853_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
             1.8915178993145003, -5.801203960010585, -0.4226823213237919,
             -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
# The three extra stages of the dense output, each row up to its last
# nonzero entry, and the four rows D of the degree-7 interpolant over all
# sixteen stages.
DOP853_C_EXTRA = (0.1, 0.2, 0.7777777777777778)
DOP853_A_EXTRA = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
     0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
DOP853_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


# ---------------------------------------------------------------------------
# Brent's root finder (Brent, Algorithms for Minimization without
# Derivatives, 1973, ch. 4), as scipy's brentq
# ---------------------------------------------------------------------------

def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int):
    """(root, iterations, converged) of f on the bracket [a, b].

    Each step keeps a bracket [x, x_blk] with |f(x)| <= |f(x_blk)|, tries
    the secant (two points) or inverse quadratic (three) step and takes it
    when it is under half the step before last and 3/4 of the bisection,
    else bisects; a step is at least delta = (xtol + rtol |x|)/2, and the
    search stops when f(x) = 0 or the half bracket is below delta.  An end
    where f is 0 is the root, found in no iteration (brentq leaves its count
    unset there).  A nan value of f
    raises ValueError, as do ends of equal sign; f is read as float(f(x)).
    """
    def value(x):
        fx = float(f(x))
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0, True
    if fcur == 0.0:
        return xcur, 0, True
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for iteration in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iteration, True
        step = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                step = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; a zero divisor makes an inf or nan step, refused below
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                divisor = dblk * dpre * (fblk - fpre)
                if divisor != 0.0:
                    step = -fcur * (fblk * dblk - fpre * dpre) / divisor
        if step is not None and 2 * abs(step) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, step
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    return xcur, maxiter, False


# ---------------------------------------------------------------------------
# Brent's bounded minimiser (Brent 1973, ch. 5), as scipy's
# minimize_scalar(method="bounded") with xatol
# ---------------------------------------------------------------------------

def minimize_bounded(f, a: float, b: float, xatol: float) -> float:
    """The point of [a, b] where the minimiser settles on f, after at most
    500 calls (scipy's default): golden-section steps, a parabolic step wherever one is
    acceptable, no two points closer than tol1 = sqrt(2.2e-16) |x| + xatol/3,
    and a stop when the bracket around the best point x is within 2 tol1
    of it."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf
