"""The classic routines the package runs, ported to Python floats.

DOP853's tables (Hairer, Norsett & Wanner, Solving Ordinary Differential
Equations I, 1993, II.10, as scipy's `DOP853` class holds them), Brent's
root finder as scipy's `brentq` runs it, Brent's bounded minimiser as
scipy's `minimize_scalar(method="bounded")` runs it, and QUADPACK's
`qagse` with `qk21`, `qpsrt` and `qelg` (Piessens et al., QUADPACK, 1983)
as scipy's `quad` runs it on a finite interval.  Each does only what the
package asks of it, in the same float operations in the same order, so
its results are scipy's bit for bit (tests/test_ports.py holds them
against scipy).  None of them imports scipy.
"""

from __future__ import annotations

import math
import sys

_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min  # QUADPACK's d1mach(1)
_OFLOW = sys.float_info.max  # and d1mach(2)

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


# ---------------------------------------------------------------------------
# QUADPACK's qagse: globally adaptive Gauss-Kronrod quadrature with Wynn's
# epsilon extrapolation, on a finite interval
# ---------------------------------------------------------------------------

# The 21-point Kronrod rule: the nodes and weights of its 10 node pairs,
# outermost first (the Gauss nodes are the second, fourth, ... of them),
# the centre weight, and the weights of the embedded 10-point Gauss rule.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980221405, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# the node pairs in qk21's order: the Gauss ones, then the Kronrod-only ones
_QK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)


def _qk21(f, a: float, b: float):
    """(result, abserr, resabs, resasc) of the 21-point rule on [a, b]:
    the Kronrod value, its error estimate, and the rule applied to |f| and
    to |f - mean f|.  f is read as float(f(x)), the centre first."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10
    for j in _QK21_ORDER:
        absc = hlgth * _XGK[j]
        fval1, fval2 = float(f(centr - absc)), float(f(centr + absc))
        fv1[j], fv2[j] = fval1, fval2
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, r^1.5), without the overflow of a huge r's power
        ratio = 0.2e3 * abserr / resasc
        abserr = resasc * (1.0 if ratio >= 1.0 else ratio ** 1.5)
    if resabs > _UFLOW / (0.5e2 * _EPS):
        abserr = max((_EPS * 0.5e2) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """Keep iord (1-based, as QUADPACK's arrays) listing the intervals by
    descending error estimate, down to the depth still worth bisecting,
    after the interval maxerr was split into maxerr and last; returns the
    new (maxerr, errmax, nrmax): the nrmax-th largest estimate's interval."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        # a split that raised the error estimate moves up the list
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # and errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    k = i - 1
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab, res3la, nres: int):
    """One step of Wynn's epsilon algorithm on the table epstab (1-based),
    whose newest entry is epstab[n]; returns (n, result, abserr, nres):
    the table's new length, the extrapolated limit, its error estimate
    from the last three results (res3la, 1-based) and the count of calls."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2, k3 = k1 - 1, k1 - 2
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k3], epstab[k2], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPS
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPS
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to rounding: convergence
                return n, res, max(err2 + err3, 5.0 * _EPS * abs(res)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPS
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two close elements: cut the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:  # irregular behaviour: cut the table
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):  # shift the table
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPS * abs(result)), nres


def qagse(f, a: float, b: float, tol: float):
    """(result, abserr, neval): the integral of f over the finite [a, b]
    by QUADPACK's qagse with epsabs = epsrel = tol > 0 and limit = 200, as
    scipy's quad(f, a, b, epsabs=tol, epsrel=tol, limit=200) runs it: it
    aims at abserr <= tol max(1, |result|) with at most 200 subintervals.
    The interval with the largest error estimate is bisected (qk21 on each
    half); once the largest estimate sits on the smallest intervals, Wynn's
    epsilon algorithm extrapolates the sequence of sums.  f is read as
    float(f(x)); its exceptions propagate."""
    epsabs = epsrel = tol
    limit = 200
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if ((abserr <= 1.0e2 * _EPS * defabs and abserr > errbnd)
            or (abserr <= errbnd and abserr != resabs) or abserr == 0.0):
        return result, abserr, 21

    # the intervals, 1-based: ends, integrals, error estimates and iord,
    # their indices by descending estimate
    alist, blist = [0.0] * (limit + 2), [0.0] * (limit + 2)
    rlist, elist, iord = [0.0] * (limit + 2), [0.0] * (limit + 2), [0] * (limit + 2)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2, res3la = [0.0] * 53, [0.0] * 4  # the epsilon table, the last three limits
    rlist2[1] = result
    errmax, maxerr, area, errsum = abserr, 1, result, abserr
    abserr = _OFLOW
    nrmax, numrl2, nres, ktmin = 1, 2, 0, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = ier = ierro = 0
    small = erlarg = ertest = correc = 0.0
    summed = True
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1, b1 = alist[maxerr], 0.5 * (alist[maxerr] + blist[maxerr])
        a2, b2 = b1, blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, the subdivision limit and bad behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPS) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr], alist[last], blist[last] = a2, a1, b1
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr], elist[last] = error2, error1
        else:
            alist[last], blist[maxerr], blist[last] = a2, b1, b2
            elist[maxerr], elist[last] = error1, error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            break
        if ier != 0:
            summed = False
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the next interval to bisect is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # bisect the larger intervals with large estimates first
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr, result, correc = abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                summed = False
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            summed = False
            break
        # go on bisecting from the largest estimate
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    if not summed and ier + ierro != 0 and abserr != _OFLOW:
        # the extrapolated result or the sum over the intervals, whichever
        # has the smaller relative error estimate
        if ierro == 3:
            abserr += correc
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        else:
            summed = abserr > errsum
    elif not summed:
        summed = abserr == _OFLOW  # no extrapolation ever improved on the sum
    if summed:
        result = 0.0
        for k in range(1, last + 1):  # in order, not by sum(): its rounding varies
            result += rlist[k]
        abserr = errsum
    return result, abserr, 42 * last - 21
