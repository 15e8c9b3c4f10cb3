"""Exact calculus of fields, normally ordered words and module states.

A generator system is a finite family of fields with parities, conformal
weights (stored doubled) and a bracket table
[a_lambda b] = sum_n (a_(n) b) lambda^n / n!  whose coefficients are linear
in the generators plus a central constant.  Everything else is derived from
mode actions on module states:

  * states are exact linear combinations of PBW monomials
    g1_(-n1) ... gr_(-nr) |hv>  with n_i >= 1, letters in a fixed order and
    odd letters never repeated;
  * the mode g_(m) of a generator acts by straightening, using
    [g_(m), h_(n)] = sum_j C(m, j) (g_(j) h)_(m+n-j);
  * the field of a state is read back from the PBW word, so normally
    ordered products, derivatives and lambda-brackets of composite fields
    are computed as coefficient extractions [z^J] (F(z) v) and converted
    back to canonical words.

A Fock highest vector over the abelian current part is its momentum, an
interned tag read directly; an induced-module highest vector carries a
finite zero-mode action table.  A lattice exponential, whose momentum is
that same tag, acts through the mode series of its creation half and the
closed form of its annihilation half.  All states are graded by depth
above the highest vector, a doubled integer.

A field carries its generator system, which is also the one module over
it (Module), so the derived operations (field_state, bracket,
normal_order, derive, apply_field_coeff, ...) take fields and states
only.  States are dicts {(word, tag): coeff}, and sums are made one way
(state_acc, Module.word_coeff_acc, then trimmed) in a dict the caller
owns, never in a memo entry, which callers only read; every empty one is
the read-only EMPTY.
"""

from math import factorial as _fact, prod
from types import MappingProxyType

from .errors import InputError
from .scalars import QQ


class UnknownGenerator(KeyError):
    pass


class NonVacuumModule(ValueError):
    pass


class GradingMismatch(ValueError):
    pass


class UndefinedAction(ValueError):
    pass


class NonAbelianMomentum(ValueError):
    pass


class CriticalLevel(InputError, ZeroDivisionError):
    pass


def _binom(m, j):
    # generalized binomial C(m, j) for integer m (possibly negative), j >= 0:
    # an integer, since j! divides any j consecutive integers
    return _ffact(m, j) // _fact(j)


def _ffact(s, d):
    return prod(range(s - d + 1, s + 1)) if d > 1 else s if d else 1


# the one empty memo entry: read-only, since callers only read memo entries
EMPTY = MappingProxyType({})


class Gen:
    __slots__ = ("index", "name", "parity", "weight2", "charge")

    def __init__(self, index, name, parity, weight2, charge):
        self.index = index
        self.name = name
        self.parity = parity
        self.weight2 = weight2
        self.charge = charge

    def __repr__(self):
        return "Gen(%s)" % self.name


def comb(const=None, terms=()):
    """The linear combination const + sum coeff * d^d g of the (g, d, coeff)
    terms as the dict {(): const, (g, d): coeff} of its nonzero parts."""
    out = {(): const} if const else {}
    out.update(((g, d), c) for (g, d, c) in terms if c)
    return out


class HvTag(tuple):
    """A highest-vector tag, ("m", coords) or ("x", key), as handed out by
    Module: one object per distinct tag, so it hashes and compares by
    identity.  Indexing and str are those of the plain tuple."""

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


class Module:
    """A finite generator family with an exact lambda-bracket table, and the
    straightening engine shared by all modules over it.

    Highest vectors are keyed by tags: ("m", coords) for Fock-type vectors
    over the current span (the vacuum is momentum zero) and ("x", key) for
    registered induced-module vectors with a finite zero-mode table.  Tags
    are interned HvTags (vacuum_tag, momentum_tag, induced_tag), so a state
    key hashes without touching the coordinates.  A momentum tag is the one
    form of a lattice momentum, in field terms and in word_coeff_acc too,
    and everything about its Fock vector (parity 0, zero modes,
    translation, pairings) is read off it; only induced vectors are stored
    as HighestVectors (hv).  A tag built any other way matches nothing.
    """

    def __init__(self, field):
        self.field = field
        self.gens = []
        self.by_name = {}
        self.brackets = {}
        self.currents = []
        self.current_pos = {}
        self._tags = {}
        self.hvs = {}
        self._mode_memo = {}
        self._translate_memo = {}
        self._word_memo = {}
        self._fword_info = {}
        self._depth2 = {}
        self._drop_memo = {}
        self._ladder_memo = {}
        self._creation_memo = {}
        self._pairing_memo = {}

    # -- generators and brackets ----------------------------------------------

    def add_gen(self, name, parity, weight2, charge=0, current=False):
        g = Gen(len(self.gens), name, parity, weight2, charge)
        self.gens.append(g)
        self.by_name[name] = g.index
        if current:
            self.current_pos[g.index] = len(self.currents)
            self.currents.append(g.index)
        return g.index

    def set_bracket(self, i, j, entries):
        """entries: {n: comb(...)}, the (j, i) table filled by skew-symmetry.
        The table is the one statement of the system: the lambda^1
        constants among the currents are also the form that pairs momenta
        (_drop_factors)."""
        entries = {n: lc for n, lc in entries.items() if lc}
        self.brackets[(i, j)] = entries
        mirror = self._skew_entries(i, j, entries)
        if i == j:
            if entries != mirror:
                raise ValueError("bracket of %s with itself is not skew-consistent"
                                 % self.gens[i].name)
        else:
            if (j, i) in self.brackets and self.brackets[(j, i)] != mirror:
                raise ValueError("bracket table for (%s,%s) inconsistent with skew"
                                 % (self.gens[j].name, self.gens[i].name))
            self.brackets[(j, i)] = mirror

    def _skew_entries(self, i, j, entries):
        # [b_m a] = -(-1)^{p_i p_j} sum_{n>=m} (-1)^n / (n-m)! d^{n-m} (a_(n) b)
        field = self.field
        sign = (-1) ** (self.gens[i].parity * self.gens[j].parity)
        out = {}
        for m in range(0, (max(entries) + 1) if entries else 0):
            acc = {}
            for n, lc in entries.items():
                if n < m:
                    continue
                e = n - m
                cf = field.lift(QQ.quo(-sign * (-1) ** n, _fact(e)))
                # d^e of the constant vanishes for e > 0
                state_acc(acc, {(k[0], k[1] + e) if k else k: c
                                for k, c in lc.items() if k or not e},
                          cf, field)
            lc = trimmed(acc)
            if lc:
                out[m] = lc
        return out

    def _tag(self, kind, payload):
        key = (kind, payload)
        tag = self._tags.get(key)
        if tag is None:
            tag = self._tags[key] = HvTag(key)
        return tag

    def vacuum_tag(self):
        return self._tag("m", (self.field.zero,) * len(self.currents))

    def momentum_tag(self, coords):
        coords = tuple(coords)
        if len(coords) != len(self.currents):
            raise NonAbelianMomentum("momentum must live in the current span")
        return self._tag("m", coords)

    def induced_tag(self, key):
        """The tag of the registered induced-module highest vector key."""
        return self._tag("x", key)

    def gen_field(self, name_or_index, d=0):
        g = name_or_index if isinstance(name_or_index, int) \
            else self.by_name[name_or_index]
        return FieldExpr(self, {(((g, d),), None): self.field.one})

    def zero_field(self):
        return FieldExpr(self)

    def one_field(self):
        return FieldExpr(self, {((), None): self.field.one})

    def exp_field(self, coords):
        """The lattice exponential e^{int mu} as a field, keyed by the
        momentum_tag of mu."""
        return FieldExpr(self, {((), self.momentum_tag(coords)):
                                self.field.one})

    # -- highest vectors -----------------------------------------------------

    def hv(self, tag):
        """The registered induced-module highest vector of tag."""
        h = self.hvs.get(tag)
        if h is None:
            raise UndefinedAction("unregistered highest vector %r" % (tag,))
        return h

    def register_hv(self, key, parity=0, zero_modes=None):
        tag = self.induced_tag(key)
        self.hvs[tag] = HighestVector(parity=parity, zero_modes=zero_modes)
        return tag

    # -- gradings -------------------------------------------------------------

    def word_depth2(self, word):
        """The doubled depth of a state word, computed once per word."""
        d2 = self._depth2.get(word)
        if d2 is None:
            d2 = self._depth2[word] = sum(
                self.gens[g].weight2 - 2 * m - 2 for (g, m) in word)
        return d2

    def field_word_info(self, word):
        """(parity, doubled weight) of a field word, once per word."""
        info = self._fword_info.get(word)
        if info is None:
            gens = self.gens
            info = self._fword_info[word] = (
                sum(gens[g].parity for (g, _) in word) % 2,
                sum(gens[g].weight2 + 2 * d for (g, d) in word))
        return info

    def word_parity(self, word):
        return sum(self.gens[g].parity for (g, m) in word) % 2

    def word_charge(self, word):
        return sum(self.gens[g].charge for (g, m) in word)

    def mono_parity(self, word, tag):
        # a Fock highest vector is even
        hv_parity = self.hv(tag).parity if tag[0] == "x" else 0
        return (self.word_parity(word) + hv_parity) % 2

    def state_depth2(self, state):
        return max((self.word_depth2(w) for (w, t) in state), default=0)

    # -- mode action -----------------------------------------------------------

    def gen_mode(self, g, m, word, tag):
        key = (g, m, word, tag)
        out = self._mode_memo.get(key)
        if out is not None:
            return out
        field = self.field
        gens = self.gens
        if not word:
            if m >= 1:
                out = EMPTY
            elif m:
                out = {(((g, m),), tag): field.one}
            elif tag[0] == "m":
                # a Fock zero mode multiplies by (g|momentum of tag)
                c = self._drop_factors(tag).get(g)
                out = {((), tag): -c} if c else EMPTY
            else:
                zm = self.hv(tag).zero_modes.get(g, EMPTY)
                out = {((), t2): c for t2, c in zm.items()} or EMPTY
        else:
            g1, m1 = word[0]
            repeat = (g, m) == (g1, m1)
            if m <= -1 and (g, m) < (g1, m1) or \
                    repeat and not gens[g].parity:
                out = {(((g, m),) + word, tag): field.one}
            else:
                rest = word[1:]
                acc = {}
                # a repeated odd mode squares to half its self-bracket,
                # g_m g_m = [g_m, g_m] / 2, which vanishes only when
                # g_(j) g = 0 for every j (free fermions)
                entry = self.brackets.get((g, g1), {})
                for j, lc in entry.items():
                    bj = _binom(m, j)
                    if bj:
                        part = self.comb_mode(lc, m + m1 - j, rest, tag)
                        bj = field.lift(bj)
                        state_acc(acc, part, bj / 2 if repeat else bj, field)
                if not repeat:
                    sign = (-1) ** (gens[g].parity * gens[g1].parity)
                    inner = self.gen_mode(g, m, rest, tag)
                    for (w2, t2), c in inner.items():
                        part = self.gen_mode(g1, m1, w2, t2)
                        cc = c if sign > 0 else -c
                        state_acc(acc, part, cc, field)
                out = trimmed(acc) or EMPTY
        self._mode_memo[key] = out
        return out

    def comb_mode(self, lc, s, word, tag):
        field = self.field
        acc = {}
        for key, coeff in lc.items():
            if not key:
                # a term may reach (word, tag) too: add, not set
                if s == -1:
                    state_acc(acc, {(word, tag): coeff}, field.one, field)
                continue
            g2, d = key
            f = (-1) ** d * _ffact(s, d)
            if f == 0:
                continue
            c = coeff if f == 1 else coeff * field.lift(f)
            part = self.gen_mode(g2, s - d, word, tag)
            state_acc(acc, part, c, field)
        return trimmed(acc)

    def gen_mode_state(self, g, m, state):
        return state_sum(((self.gen_mode(g, m, w, t), c)
                          for (w, t), c in state.items()), self.field)

    # -- translation -------------------------------------------------------------

    def translate_mono(self, word, tag):
        key = (word, tag)
        out = self._translate_memo.get(key)
        if out is not None:
            return out
        field = self.field
        if not word and tag[0] == "m":
            # T|mu> = mu_(-1)|mu> on a Fock highest vector
            out = {(((self.currents[j], -1),), tag): c
                   for j, c in enumerate(tag[1]) if c}
        elif not word:
            out = dict(self.hv(tag).translate_state)
        else:
            g1, m1 = word[0]
            rest = word[1:]
            acc = {}
            part = self.gen_mode(g1, m1 - 1, rest, tag)
            state_acc(acc, part, field.lift(-m1), field)
            inner = self.translate_mono(rest, tag)
            for (w2, t2), c in inner.items():
                state_acc(acc, self.gen_mode(g1, m1, w2, t2), c, field)
            out = trimmed(acc)
        self._translate_memo[key] = out
        return out

    def translate(self, state):
        return state_sum(((self.translate_mono(w, t), c)
                          for (w, t), c in state.items()), self.field)

    # -- coefficient extraction for normally ordered word fields ----------------

    def _mom_pairing_int(self, mom, tag):
        """(mu|momentum of tag) for the interned momentum mu, as an int,
        read off _drop_factors and stored per pair of tags."""
        out = self._pairing_memo.get((mom, tag))
        if out is not None:
            return out
        if tag[0] != "m":
            raise GradingMismatch(
                "lattice exponential applied to a non-Fock highest vector")
        pos = self.current_pos
        val = -sum((f * tag[1][pos[h]]
                    for h, f in self._drop_factors(mom).items()),
                   self.field.zero)
        q = self.field.as_rational(val)
        if q is None or q.denominator != 1:
            raise GradingMismatch(
                "momentum pairing %s is not an integer" % val)
        out = self._pairing_memo[mom, tag] = q.numerator
        return out

    def word_coeff_mono(self, word, mom, J, w0, tag):
        """[z^J] of the word field (with optional momentum factor) on a
        monomial; mom is None or a tag of momentum_tag, so the memo key
        hashes no coordinate."""
        key = (word, mom, J, w0, tag)
        out = self._word_memo.get(key)
        if out is not None:
            return out
        field = self.field
        if not word:
            if mom is None:
                out = {(w0, tag): field.one} if J == 0 else EMPTY
            else:
                out = self.exp_coeff_mono(mom, J, w0, tag) or EMPTY
        elif mom is None and len(word) == 1:
            # one letter: (d^d g)_(n) = (-1)^d ff(n, d) g_(n-d), n = -J - 1,
            # which vanishes for 0 <= n < d and past the depth of w0
            (g, d), = word
            n = -J - 1
            f = (-1) ** d * _ffact(n, d)
            if not f or n >= 0 and 2 * n > self.word_depth2(w0) + \
                    self.gens[g].weight2 + 2 * d - 2:
                out = EMPTY
            else:
                out = self.gen_mode(g, n - d, w0, tag)
                if f != 1 and out:
                    lf = field.lift(f)
                    out = {k: c * lf for k, c in out.items()}
        else:
            g, d = word[0]
            rest = word[1:]
            p_a = self.gens[g].parity
            w2a = self.gens[g].weight2 + 2 * d
            p_word, W2word = self.field_word_info(word)
            p_rest = (p_word - p_a) % 2
            W2rest = W2word - w2a
            D2 = self.word_depth2(w0)
            P2 = 0 if mom is None else 2 * self._mom_pairing_int(mom, tag)
            # (d^d g)_(n) = (-1)^d ff(n, d) g_(n-d), folded in once per n
            acc = {}
            imax = (D2 + 2 * J + W2rest - P2) // 2
            for i in range(0, imax + 1):
                inner = self.word_coeff_mono(rest, mom, J - i, w0, tag)
                # n = -i - 1 < 0: the factor is (i+1)...(i+d), 1 for d = 0
                lf = field.lift(_ffact(i + d, d)) if d and inner else None
                for (w2, t2), c in inner.items():
                    part = self.gen_mode(g, -i - 1 - d, w2, t2)
                    state_acc(acc, part, c if lf is None else c * lf, field)
            imax2 = (D2 + w2a) // 2 - 1
            sign = (-1) ** (p_a * p_rest)
            # n = i >= 0: the factor vanishes for i < d
            for i in range(d, imax2 + 1):
                lower = self.gen_mode(g, i - d, w0, tag)
                if not lower:
                    continue
                f = sign * (-1) ** d * _ffact(i, d)
                lf = field.lift(f) if f * f != 1 else None
                for (w2, t2), c in lower.items():
                    part = self.word_coeff_mono(rest, mom, J + i + 1, w2, t2)
                    cc = c * lf if lf is not None else c if f == 1 else -c
                    state_acc(acc, part, cc, field)
            out = trimmed(acc) or EMPTY
        self._word_memo[key] = out
        return out

    def exp_coeff_mono(self, mom, J, w0, tag):
        """[z^J] of e^{int mu}(z) acting on a monomial of a Fock module.

        With p = (mu|momentum of tag) and S_mu the shift of the momentum,
        e^{int mu}(z) = S_mu z^p C(z) A(z), where
            A(z) = exp(-sum_{j>0} mu_(j) z^(-j) / j) = sum_b A_b z^(-b),
            C(z) = exp(sum_{j>0} mu_(-j) z^j / j) = sum_a C_a z^a,
        and the coefficient is sum_b C_{J-p+b} S_mu A_b on the monomial.
        A_b is read off in closed form (_annihilation_ladder).  The modes
        of mu of one sign commute, so differentiating C(z) gives
            C_a = (1/a) sum_{j=1..a} mu_(-j) C_{a-j}.
        C_a is linear and does not see where a monomial came from, so each
        C_a m is stored per shifted monomial m (_creation_ladder) and shared
        by every b, every J and every monomial whose A_b reaches m.
        """
        field = self.field
        p_int = self._mom_pairing_int(mom, tag)
        ladder, new_tag = self._annihilation_ladder(mom, w0, tag)
        out = {}
        for b, st in enumerate(ladder):
            top = J - p_int + b
            if top < 0:
                continue
            # S_mu retags the highest vector before C(z) acts
            for (w, t), c in st.items():
                up = self._creation_ladder(mom, w, new_tag, top)
                state_acc(out, up[top], c, field)
        return trimmed(out)

    def _annihilation_ladder(self, mom, w0, tag):
        """A_0..A_{D/2} on the monomial and the shifted tag, stored per
        (mom, w0, tag) and only read by callers.

        The modes of mu bracket centrally with the currents and commute
        with every other letter: [mu_(j), g_(n)] = j (mu|g) delta_{j+n,0}
        for a current g and 0 otherwise (_drop_factors checks this).  So
        the exponent X(z) = -sum_{j>0} mu_(j) z^(-j) / j of A(z) has a
        central commutator [X(z), g_(n)] = -(mu|g) z^n with a current mode
        g_(n), n < 0, and
            A(z) g_(n) A(z)^(-1) = exp(ad X(z)) g_(n) = g_(n) - (mu|g) z^n,
        the series stopping after one commutator.  A(z) fixes the highest
        vector, since mu_(j) kills it for j > 0, so on a monomial
            A(z) g1_(n1) ... gr_(nr) |hv>
              = prod_i (gi_(ni) - (mu|gi) z^ni) |hv>,
        with (mu|gi) = 0 for a letter that is not a current.  Expanding the
        product, A_b is the sum over the sets of letters of total mode -b
        of the word without them times the product of their -(mu|g).  The
        kept letters stay in order, so each term is again a PBW monomial;
        sets that keep the same word merge in the sum, which is where
        repeated letters get their binomial multiplicities.
        """
        key = (mom, w0, tag)
        out = self._ladder_memo.get(key)
        if out is not None:
            return out
        new_tag = self.momentum_tag(a + b for a, b in zip(tag[1], mom[1]))
        drops = self._drop_factors(mom)
        field = self.field
        # {(kept word, b): coeff} over the letters read so far
        terms = {((), 0): field.one}
        for letter in w0:
            nxt = {(kept + (letter,), b): c for (kept, b), c in terms.items()}
            f = drops.get(letter[0])
            if f is not None:
                # dropped, the letter adds its mode -m to b
                state_acc(nxt, {(kept, b - letter[1]): c
                                for (kept, b), c in terms.items()}, f, field)
            terms = nxt
        ladder = [{} for _ in range(self.word_depth2(w0) // 2 + 1)]
        for (kept, b), c in terms.items():
            if b < len(ladder):
                ladder[b][(kept, tag)] = c
        out = self._ladder_memo[key] = (tuple(ladder), new_tag)
        return out

    def _drop_factors(self, mom):
        """{g: -(mu|g)} over the currents g with (mu|g) != 0, read off the
        lambda^1 constants of the bracket table once per momentum (or Fock
        tag): the one Gram of the system.  Raises NonAbelianMomentum unless
        every current in play (mu_i != 0) is even, brackets with each
        current by a central lambda^1 constant and with no other letter:
        the conditions of _annihilation_ladder's closed form."""
        out = self._drop_memo.get(mom)
        if out is not None:
            return out
        field = self.field
        acc = {}
        for i, c in enumerate(mom[1]):
            if not c:
                continue
            a = self.currents[i]
            if self.gens[a].parity:
                raise NonAbelianMomentum(
                    "current %s is odd" % self.gens[a].name)
            for h in range(len(self.gens)):
                entries = self.brackets.get((a, h))
                if not entries:
                    continue
                lc = entries.get(1, EMPTY)
                if h not in self.current_pos or len(entries) > 1 or \
                        list(lc) != [()]:
                    raise NonAbelianMomentum(
                        "current %s brackets with %s by more than a central "
                        "lambda constant" % (self.gens[a].name,
                                             self.gens[h].name))
                state_acc(acc, {h: lc[()]}, c, field)
        out = self._drop_memo[mom] = {h: -v for h, v in trimmed(acc).items()}
        return out

    def _creation_ladder(self, mom, word, tag, top):
        """C_0 m .. C_top m (at least) on the monomial m = (word, tag),
        stored per (mom, word, tag); entries are appended on demand, never
        changed, and only read by callers."""
        key = (mom, word, tag)
        ladder = self._creation_memo.get(key)
        if ladder is None:
            ladder = self._creation_memo[key] = [{(word, tag): self.field.one}]
        while len(ladder) <= top:
            ladder.append(self._exp_step(mom, ladder))
        return ladder

    def _exp_step(self, mom, ladder):
        """C_n = (1/n) sum_{j=1..n} mu_(-j) C_{n-j}, n = len(ladder)."""
        field = self.field
        currents = self.currents
        n = len(ladder)
        scale = field.one / n
        parts = [(currents[i], c * scale) for i, c in enumerate(mom[1])
                 if c]
        acc = {}
        for j in range(1, n + 1):
            for (w, t), c in ladder[n - j].items():
                for g, cg in parts:
                    state_acc(acc, self.gen_mode(g, -j, w, t), c * cg, field)
        return trimmed(acc)

    def word_coeff_acc(self, acc, word, mom, J, state, coeff):
        """Add coeff * [z^J] of the word field, times e^{int mu} for the
        momentum_tag mom of mu or no factor for None, on a state into acc in
        place.  Memo entries are only read; acc is the caller's."""
        one = self.field.one
        for (w, t), c in state.items():
            part = self.word_coeff_mono(word, mom, J, w, t)
            if part:
                state_acc(acc, part, c if coeff is one else
                          coeff if c is one else c * coeff, self.field)

    def word_coeff_state(self, word, mom, J, state):
        """word_coeff_acc with coeff 1 into a new state, trimmed."""
        acc = {}
        self.word_coeff_acc(acc, word, mom, J, state, self.field.one)
        return trimmed(acc)


class HighestVector:
    """A registered induced-module highest vector (Module.register_hv)."""

    __slots__ = ("parity", "zero_modes", "translate_state")

    def __init__(self, parity=0, zero_modes=None, translate_state=None):
        self.parity = parity
        self.zero_modes = zero_modes or {}  # induced: gidx -> {tag2: coeff}
        self.translate_state = translate_state or {}


def state_acc(acc, part, coeff, field):
    """Add coeff * part into the state acc, in place; part is only read."""
    if not coeff:
        return
    one = field.one
    if coeff is one:
        for key, c in part.items():
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
        return
    for key, c in part.items():
        # field values are immutable, so the sum may share coeff itself
        cc = coeff if c is one else c * coeff
        cur = acc.get(key)
        acc[key] = cc if cur is None else cur + cc


def trimmed(acc):
    """acc without its zero coefficients: how every sum is finished.  That
    is acc itself when no value is zero, else a new dict (acc left as it
    was), so a caller trims only a dict it owns."""
    return acc if all(acc.values()) else {k: v for k, v in acc.items() if v}


def state_sum(pairs, field):
    """sum coeff * part over the (part, coeff) pairs, trimmed."""
    acc = {}
    for part, coeff in pairs:
        state_acc(acc, part, coeff, field)
    return trimmed(acc)


def flat_table(table):
    """The lambda-table {n: field} as one dict {(n, word, mom): coeff}; two
    tables are equal exactly when their flat forms are."""
    return {(n,) + wm: c
            for n, f in table.items() for wm, c in f.terms.items()}


# ---------------------------------------------------------------------------
# state <-> field


class FieldExpr:
    """Sum of canonical normally ordered words, optionally with a lattice
    exponential factor; equality is equality of canonical forms."""

    __slots__ = ("system", "terms", "_state")

    def __init__(self, system, terms=None):
        self.system = system
        self.terms = trimmed(terms) if terms else {}

    # -- ring-ish operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, FieldExpr):
            if other.system is not self.system:
                raise UnknownGenerator("mixing fields from different systems")
            out = dict(self.terms)
            field = self.system.field
            state_acc(out, other.terms, field.one, field)
            return FieldExpr(self.system, out)
        return NotImplemented

    def __sub__(self, other):
        return self + other.scale(self.system.field.lift(-1))

    def __neg__(self):
        return self.scale(self.system.field.lift(-1))

    def scale(self, c):
        return FieldExpr(self.system,
                         {k: v * c for k, v in self.terms.items()})

    def scale_fraction(self, fr):
        return self.scale(self.system.field.lift(fr))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FieldExpr) or other.system is not self.system:
            return NotImplemented
        # terms never holds a zero coefficient
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure ---------------------------------------------------------------

    def parity(self):
        pars = {self.system.field_word_info(word)[0]
                for (word, mom) in self.terms}
        if len(pars) > 1:
            raise ValueError("field expression is not parity homogeneous")
        return pars.pop() if pars else 0

    def __str__(self):
        if not self.terms:
            return "0"
        sys = self.system
        bits = []
        for (word, mom), c in sorted(self.terms.items(),
                                     key=lambda kv: _term_sort_key(kv[0])):
            letters = []
            for (g, d) in word:
                nm = sys.gens[g].name
                letters.append(nm if d == 0 else "d^%d %s" % (d, nm)
                               if d > 1 else "d %s" % nm)
            if mom is not None:
                letters.append("e^{%s}" % ",".join(map(str, mom[1])))
            body = ":" + " ".join(letters) + ":" if len(letters) > 1 else \
                (letters[0] if letters else "1")
            bits.append("(%s)*%s" % (c, body))
        return " + ".join(bits)

    __repr__ = __str__


def _term_sort_key(key):
    word, mom = key
    return (word, () if mom is None else tuple(str(x) for x in mom[1]))


def field_to_json(fe):
    """The JSON form of a field in reports, written and never read back:
    its terms in __str__ order, each {"coeff": "p(k)/q(k)", "word":
    [[generator name, derivative order], ...], "momentum": ["p/q or
    p(k)/q(k)", ...]}, momentum omitted when absent."""
    sys = fe.system
    out = []
    for (word, mom), c in sorted(fe.terms.items(),
                                 key=lambda kv: _term_sort_key(kv[0])):
        term = {
            "coeff": str(c),
            "word": [[sys.gens[g].name, d] for (g, d) in word],
        }
        if mom is not None:
            term["momentum"] = [str(x) for x in mom[1]]
        out.append(term)
    return out


def field_state(fe):
    """The state A_(-1)...|0> (or |mu> for a momentum factor) of a field,
    built once per field and only read by callers."""
    try:
        return fe._state
    except AttributeError:
        pass
    module = fe.system
    field = module.field
    out = {}
    for (word, mom), c in fe.terms.items():
        st = {((), module.vacuum_tag() if mom is None else mom): c}
        for (g, d) in reversed(word):
            scale = field.lift(_fact(d)) if d >= 2 else None
            nxt = {}
            for (w, t), cc in st.items():
                state_acc(nxt, module.gen_mode(g, -d - 1, w, t),
                          cc if scale is None else cc * scale, field)
            st = nxt
        state_acc(out, st, field.one, field)
    fe._state = out = trimmed(out)
    return out


def state_field(state, system):
    """Inverse of field_state on Fock-type states (canonical words)."""
    field = system.field
    terms = {}
    vacuum = system.vacuum_tag()
    for (word, tag), c in state.items():
        if tag[0] != "m":
            raise NonVacuumModule(
                "state over %r has no field counterpart" % (tag,))
        mom = None if tag is vacuum else tag
        fword, den = [], 1
        for (g, m) in word:
            fword.append((g, -m - 1))
            if m <= -3:
                den *= _fact(-m - 1)
        # distinct monomials give distinct (word, mom) keys: nothing to sum
        terms[(tuple(fword), mom)] = c if den == 1 else c / field.lift(den)
    return FieldExpr(system, terms)


# ---------------------------------------------------------------------------
# derived operations


def apply_field_coeff(fe, J, state):
    """[z^J] (F(z) state) for a field expression F."""
    acc = {}
    for (word, mom), c in fe.terms.items():
        fe.system.word_coeff_acc(acc, word, mom, J, state, c)
    return trimmed(acc)


def bracket(a, b):
    """[a_lambda b] as {n: field of (a_(n) b)}; lambda-poly coefficients
    carry the 1/n! normalization implicitly (entry n is a_(n) b).  Every
    generator has weight2 >= 0, so no state has negative depth, and a word
    term of doubled weight w2a sends b (depth <= depth_b) to depth
    w2a + depth_b - 2n - 2: a_(n) b = 0 past n = (depth_b + w2a)//2 - 1."""
    if a.system is not b.system:
        raise UnknownGenerator("bracket of fields over different systems")
    module = a.system
    bstate = field_state(b)
    if not bstate:
        return {}
    depth_b = module.state_depth2(bstate)
    out = {}
    for (word, mom), c in a.terms.items():
        w2a = module.field_word_info(word)[1]
        # the momentum pairing shifts the cutoff for lattice factors
        nmax = (depth_b + w2a) // 2 - (
            1 if mom is None else _mom_bound(mom, bstate, module))
        for n in range(0, nmax + 1):
            module.word_coeff_acc(out.setdefault(n, {}), word, mom, -n - 1,
                                  bstate, c)
    return {n: state_field(st, a.system) for n, st in out.items()
            if any(st.values())}


def _mom_bound(mom, bstate, module):
    worst = 0
    for (w, t) in bstate:
        p = module._mom_pairing_int(mom, t)
        worst = min(worst, p)
    return worst


def normal_order(a, b):
    """The normally ordered product :ab: in canonical form."""
    return state_field(apply_field_coeff(a, 0, field_state(b)), a.system)


def derive(a):
    return state_field(a.system.translate(field_state(a)), a.system)


def derive_n(a, n):
    for _ in range(n):
        a = derive(a)
    return a


def lambda_shift_skew(lp, pa, pb, system):
    """Apply skew-symmetry: from [a_lambda b] compute [b_lambda a]."""
    sign = -(-1) ** (pa * pb)
    out = {}
    for m in range(0, max(lp, default=-1) + 1):
        acc = sum((derive_n(lp[n], n - m).scale_fraction(
            QQ.quo((-1) ** n * sign, _fact(n - m)))
            for n in sorted(lp) if n >= m), system.zero_field())
        if not acc.is_zero():
            out[m] = acc
    return out


def graded_basis(module, weight2):
    """Deterministic PBW basis of the vacuum module at one doubled weight
    (depth).

    Returns a list of (word, vacuum tag) pairs in lexicographic order of
    the words.  A word is a non-decreasing run of letters (g, m), m <= -1,
    each of depth weight2_g - 2m - 2; odd generators never repeat a mode.
    """
    letters = [((g, m), gen.weight2 - 2 * m - 2, gen.parity)
               for g, gen in enumerate(module.gens)
               for m in range(-weight2 - 1, 0)
               if gen.weight2 - 2 * m - 2 <= weight2]
    words = []

    def rec(start, rem, word):
        if rem == 0:
            words.append(word)
            return
        for i in range(start, len(letters)):
            letter, cost, odd = letters[i]
            if cost <= rem:
                rec(i + odd, rem - cost, word + (letter,))

    rec(0, weight2, ())
    tag = module.vacuum_tag()
    return [(w, tag) for w in sorted(words)]


def sugawara_field(system, dual_pairs, denom):
    """(1/denom) * sum_i :J^{u^i} J^{u_i}: for given dual pairs of fields."""
    if not dual_pairs:
        raise ValueError("empty Sugawara sum")
    acc = sum((normal_order(a, b) for a, b in dual_pairs), system.zero_field())
    return acc.scale(system.field.one / denom)
