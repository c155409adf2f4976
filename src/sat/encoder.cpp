#include "sat/encoder.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netlist/simulator.hpp"

namespace gshe::sat {
namespace {

using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::kNoGate;

/// Clause literal asserting "var != value" (a truth-table row guard).
Lit guard(Var v, bool value) { return Lit(v, value); }
/// Clause literal asserting "var == value".
Lit equal(Var v, bool value) { return Lit(v, !value); }
/// Row guard over a literal: false exactly when `l` evaluates to `value`.
Lit lit_guard(Lit l, bool value) { return value ? ~l : l; }

/// Truth-table transform f'(a, b) = f(!a, b): swap the a=0 and a=1 rows.
std::uint8_t flip_a(std::uint8_t tt) {
    return static_cast<std::uint8_t>(((tt & 0b0011u) << 2) | ((tt & 0b1100u) >> 2));
}
/// Truth-table transform f'(a, b) = f(a, !b).
std::uint8_t flip_b(std::uint8_t tt) {
    return static_cast<std::uint8_t>(((tt & 0b0101u) << 1) | ((tt & 0b1010u) >> 1));
}

std::vector<int> camo_key_offsets(const netlist::Netlist& nl, int* total) {
    std::vector<int> off;
    off.reserve(nl.camo_cells().size());
    int bits = 0;
    for (const netlist::CamoCell& c : nl.camo_cells()) {
        off.push_back(bits);
        bits += c.key_bits();
    }
    *total = bits;
    return off;
}

/// Sentinel literal code of an absent LutKey slot.
constexpr std::int32_t kNoLut = -3;

std::uint64_t num_vars(const SolverBackend& s) {
    return static_cast<std::uint64_t>(s.num_vars());
}
std::uint64_t num_clauses(const SolverBackend& s) {
    return static_cast<std::uint64_t>(s.num_clauses());
}

}  // namespace

void accumulate(EncoderStats& into, const EncoderStats& from) {
    into.vars += from.vars;
    into.clauses += from.clauses;
    into.gates_folded += from.gates_folded;
    into.hash_hits += from.hash_hits;
    into.agreements += from.agreements;
    into.agreement_vars += from.agreement_vars;
    into.agreement_clauses += from.agreement_clauses;
    into.cone_gates += from.cone_gates;
    into.sim_gates += from.sim_gates;
}

CircuitEncoder::CircuitEncoder(SolverBackend& solver) : solver_(solver) {}

CircuitEncoder::~CircuitEncoder() = default;

const CircuitEncoder::NetlistCache& CircuitEncoder::cache_for(
    const netlist::Netlist& nl) {
    if (cache_.nl != &nl) {
        cache_.sim = std::make_unique<netlist::Simulator>(nl);
        cache_.key_offset = camo_key_offsets(nl, &cache_.key_bits);
        const std::vector<char>& cone = nl.key_cone();
        cache_.cone_order.clear();
        for (const GateId id : nl.topological_order())
            if (cone[id] != 0) cache_.cone_order.push_back(id);
        cache_.sim_gates = nl.logic_gate_count() - nl.key_cone_size();
        cache_.nl = &nl;
    }
    return cache_;
}

Lit CircuitEncoder::constant(bool value) {
    if (const_var_ == kNoVar) {
        const_var_ = solver_.new_var();
        solver_.add_clause(Lit(const_var_, false));  // fixed true
    }
    return Lit(const_var_, !value);
}

void CircuitEncoder::contradict() { solver_.add_clause(Clause{}); }

void CircuitEncoder::count_since(std::uint64_t v0, std::uint64_t c0,
                                 std::uint64_t agreements) {
    const std::uint64_t dv = num_vars(solver_) - v0;
    const std::uint64_t dc = num_clauses(solver_) - c0;
    stats_.vars += dv;
    stats_.clauses += dc;
    if (agreements == 0) return;
    stats_.agreement_vars += dv;
    stats_.agreement_clauses += dc;
    stats_.agreements += agreements;
}

Lit CircuitEncoder::add_xor(Lit a, Lit b) {
    const std::uint64_t v0 = num_vars(solver_), c0 = num_clauses(solver_);
    const Lit y =
        realize(encode_fn(core::Bool2::XOR(), xlit_of(a), xlit_of(b)));
    count_since(v0, c0);
    return y;
}

Lit CircuitEncoder::add_or(const std::vector<Lit>& xs) {
    const std::uint64_t v0 = num_vars(solver_), c0 = num_clauses(solver_);
    XLit acc = XLit::constant(false);
    for (const Lit x : xs) acc = encode_fn(core::Bool2::OR(), acc, xlit_of(x));
    const Lit y = realize(acc);
    count_since(v0, c0);
    return y;
}

void CircuitEncoder::fix_var(Var v, bool value) {
    const std::uint64_t v0 = num_vars(solver_), c0 = num_clauses(solver_);
    solver_.add_clause(equal(v, value));
    count_since(v0, c0);
}

CircuitEncoder::XLit CircuitEncoder::fold(XLit x) const {
    if (x.is_const()) return x;
    const LBool v = solver_.fixed_value(x.as_lit());
    return v == LBool::Undef ? x : XLit::constant(v == LBool::True);
}

CircuitEncoder::XLit CircuitEncoder::xlit_of(Lit l) const {
    // Map the shared constant literal back to an encode-time constant so
    // downstream folding sees through it (e.g. a folded PO fed to a miter),
    // also on a backend that reports no root-fixed literals.
    if (const_var_ != kNoVar && l.var() == const_var_)
        return XLit::constant(!l.negated());
    return fold(XLit::lit(l));
}

Lit CircuitEncoder::realize(XLit x) {
    if (x.is_const()) return constant(x.const_value());
    return x.as_lit();
}

CircuitEncoder::XLit CircuitEncoder::unary_of(XLit x, bool f0, bool f1) {
    if (f0 == f1) return XLit::constant(f0);
    if (x.is_const()) return XLit::constant(x.const_value() ? f1 : f0);
    return f1 ? x : x.negated();  // (0,1) = buffer, (1,0) = inverter
}

CircuitEncoder::XLit CircuitEncoder::encode_fn(core::Bool2 fn, XLit a, XLit b) {
    // 1. Constant substitution: restrict to a unary function, then reduce.
    if (a.is_const() && b.is_const()) {
        ++stats_.gates_folded;
        return XLit::constant(fn.eval(a.const_value(), b.const_value()));
    }
    if (a.is_const()) {
        ++stats_.gates_folded;
        const bool av = a.const_value();
        return unary_of(b, fn.eval(av, false), fn.eval(av, true));
    }
    if (b.is_const()) {
        ++stats_.gates_folded;
        const bool bv = b.const_value();
        return unary_of(a, fn.eval(false, bv), fn.eval(true, bv));
    }
    // 2. Shared or complementary inputs: f(x, x) / f(x, !x) are unary.
    Lit la = a.as_lit();
    Lit lb = b.as_lit();
    if (la == lb) {
        ++stats_.gates_folded;
        return unary_of(a, fn.eval(false, false), fn.eval(true, true));
    }
    if (la == ~lb) {
        ++stats_.gates_folded;
        return unary_of(a, fn.eval(false, true), fn.eval(true, false));
    }
    // 3. Degenerate truth tables over distinct inputs.
    if (fn.independent_of_a() && fn.independent_of_b()) {
        ++stats_.gates_folded;
        return XLit::constant(fn.eval(false, false));
    }
    if (fn.independent_of_b()) {
        ++stats_.gates_folded;
        return unary_of(a, fn.eval(false, false), fn.eval(true, false));
    }
    if (fn.independent_of_a()) {
        ++stats_.gates_folded;
        return unary_of(b, fn.eval(false, false), fn.eval(false, true));
    }
    // 4. Genuine binary gate: normalize to the canonical form — positive
    // inputs (negations absorbed into the table), inputs sorted by variable,
    // output polarity chosen so f(0,0) = 0 — then consult the hash.
    std::uint8_t tt = fn.truth_table();
    if (la.negated()) {
        tt = flip_a(tt);
        la = ~la;
    }
    if (lb.negated()) {
        tt = flip_b(tt);
        lb = ~lb;
    }
    if (lb.var() < la.var()) {
        tt = core::Bool2(tt).swapped().truth_table();
        std::swap(la, lb);
    }
    const bool negate_out = (tt & 1) != 0;
    if (negate_out) tt = core::Bool2(tt).complement().truth_table();

    const PlainKey key{la.var(), lb.var(), tt};
    Var y = kNoVar;
    if (const auto it = plain_hash_.find(key); it != plain_hash_.end()) {
        ++stats_.hash_hits;
        y = it->second;
    } else {
        y = solver_.new_var();
        // Prime implicants: one binary clause per controlling input value
        // (f(va, *) constant), then a row clause for each row that no
        // controlling value covers. Unit propagation then derives every
        // output value the inputs force.
        const core::Bool2 cfn(tt);
        bool a_controls[2] = {false, false};
        bool b_controls[2] = {false, false};
        for (int v = 0; v < 2; ++v) {
            const bool bit = v != 0;
            if (cfn.eval(bit, false) == cfn.eval(bit, true)) {
                a_controls[v] = true;
                solver_.add_clause(guard(la.var(), bit),
                                   equal(y, cfn.eval(bit, false)));
            }
            if (cfn.eval(false, bit) == cfn.eval(true, bit)) {
                b_controls[v] = true;
                solver_.add_clause(guard(lb.var(), bit),
                                   equal(y, cfn.eval(false, bit)));
            }
        }
        for (int va = 0; va < 2; ++va)
            for (int vb = 0; vb < 2; ++vb)
                if (!a_controls[va] && !b_controls[vb])
                    solver_.add_clause(guard(la.var(), va != 0),
                                       guard(lb.var(), vb != 0),
                                       equal(y, cfn.eval(va != 0, vb != 0)));
        plain_hash_.emplace(key, y);
    }
    return XLit::lit(Lit(y, negate_out));
}

const std::array<CircuitEncoder::XLit, 4>& CircuitEncoder::truth_table_of(
    const netlist::CamoCell& cell, const Var* key_bits) {
    const int bits = cell.key_bits();
    const auto first = static_cast<std::size_t>(key_bits[0]);
    if (first < block_of_var_.size() && block_of_var_[first] >= 0) {
        const KeyBlock& kb =
            blocks_[static_cast<std::size_t>(block_of_var_[first])];
        if (kb.vars.size() != static_cast<std::size_t>(bits) ||
            !std::equal(kb.vars.begin(), kb.vars.end(), key_bits))
            throw std::invalid_argument(
                "CircuitEncoder: key variable shared by two key blocks");
        return kb.t;
    }

    KeyBlock kb;
    kb.vars.assign(key_bits, key_bits + bits);
    const std::size_t k = cell.candidates.size();
    const std::size_t codes = std::size_t{1} << bits;

    // Forbid unused key codes — once per key block, not per encoded copy.
    for (std::size_t c = k; c < codes; ++c) {
        Clause cl;
        for (int j = 0; j < bits; ++j)
            cl.push_back(guard(kb.vars[static_cast<std::size_t>(j)],
                               ((c >> j) & 1) != 0));
        solver_.add_clause(std::move(cl));
    }

    // The codes still possible: used, and consistent with every key bit the
    // solver has already fixed at the root.
    std::vector<LBool> fixed(static_cast<std::size_t>(bits));
    for (int j = 0; j < bits; ++j)
        fixed[static_cast<std::size_t>(j)] =
            solver_.fixed_value(Lit(kb.vars[static_cast<std::size_t>(j)], false));
    std::vector<std::size_t> live;
    for (std::size_t c = 0; c < k; ++c) {
        bool ok = true;
        for (int j = 0; j < bits && ok; ++j) {
            const LBool f = fixed[static_cast<std::size_t>(j)];
            ok = f == LBool::Undef || (f == LBool::True) == (((c >> j) & 1) != 0);
        }
        if (ok) live.push_back(c);
    }

    for (int r = 0; r < 4; ++r) {
        const auto row = [&](std::size_t c) {
            return cell.candidates[c].eval((r & 2) != 0, (r & 1) != 0);
        };
        // Constant: every live candidate agrees on this row. (No live code
        // means the root is already refuted; any value will do.)
        if (std::all_of(live.begin(), live.end(),
                        [&](std::size_t c) { return row(c) == row(live[0]); })) {
            kb.t[static_cast<std::size_t>(r)] =
                XLit::constant(!live.empty() && row(live[0]));
            continue;
        }
        // Alias: one free key bit equals the row (or its complement) under
        // every live code.
        bool aliased = false;
        for (int j = 0; j < bits && !aliased; ++j) {
            if (fixed[static_cast<std::size_t>(j)] != LBool::Undef) continue;
            for (const bool neg : {false, true}) {
                if (std::all_of(live.begin(), live.end(), [&](std::size_t c) {
                        return ((((c >> j) & 1) != 0) != neg) == row(c);
                    })) {
                    kb.t[static_cast<std::size_t>(r)] = XLit::lit(
                        Lit(kb.vars[static_cast<std::size_t>(j)], neg));
                    aliased = true;
                    break;
                }
            }
        }
        if (aliased) continue;
        // Fresh variable defined by (key != c) or (t == f_c(r)) per code.
        const Var t = solver_.new_var();
        for (const std::size_t c : live) {
            Clause cl;
            for (int j = 0; j < bits; ++j)
                if (fixed[static_cast<std::size_t>(j)] == LBool::Undef)
                    cl.push_back(guard(kb.vars[static_cast<std::size_t>(j)],
                                       ((c >> j) & 1) != 0));
            cl.push_back(equal(t, row(c)));
            solver_.add_clause(std::move(cl));
        }
        kb.t[static_cast<std::size_t>(r)] = XLit::lit(Lit(t, false));
    }

    if (block_of_var_.size() <= first) block_of_var_.resize(first + 1, -1);
    block_of_var_[first] = static_cast<std::int32_t>(blocks_.size());
    blocks_.push_back(std::move(kb));
    return blocks_.back().t;
}

CircuitEncoder::XLit CircuitEncoder::encode_camo(const netlist::CamoCell& cell,
                                                 const Var* key_bits, XLit a,
                                                 XLit b) {
    if (cell.key_bits() == 0) {
        // A single candidate is no secret: the plain gate.
        return encode_fn(cell.candidates.at(0), a, b);
    }
    const std::array<XLit, 4>& t = truth_table_of(cell, key_bits);
    return encode_lut({fold(t[0]), fold(t[1]), fold(t[2]), fold(t[3])}, a, b);
}

CircuitEncoder::XLit CircuitEncoder::encode_mux(XLit s, XLit hi, XLit lo) {
    if (s.is_const()) return s.const_value() ? hi : lo;
    // A data input on the select's own variable is known in its branch.
    const Lit ls = s.as_lit();
    if (!hi.is_const() && hi.as_lit().var() == ls.var())
        hi = XLit::constant(hi.as_lit() == ls);
    if (!lo.is_const() && lo.as_lit().var() == ls.var())
        lo = XLit::constant(lo.as_lit() == ~ls);
    if (hi == lo) return hi;
    if (hi.is_const() && lo.is_const())
        return unary_of(s, lo.const_value(), hi.const_value());
    // One constant branch, or complementary branches: a plain 2-input gate
    // over (s, other branch), bit (s << 1 | x) of the truth table.
    if (lo.is_const())  // s ? x : lo
        return encode_fn(core::Bool2(static_cast<std::uint8_t>(
                             (lo.const_value() ? 0b0011u : 0u) | 0b1000u)),
                         s, hi);
    if (hi.is_const())  // s ? hi : x
        return encode_fn(core::Bool2(static_cast<std::uint8_t>(
                             0b0010u | (hi.const_value() ? 0b1100u : 0u))),
                         s, lo);
    if (hi == lo.negated()) return encode_fn(core::Bool2::XOR(), s, lo);

    // Genuine multiplexer; a negated select swaps the branches.
    if (ls.negated()) {
        s = s.negated();
        std::swap(hi, lo);
    }
    const LutKey key{{s.code, hi.code, lo.code, kNoLut, kNoLut, kNoLut}};
    if (const auto it = lut_hash_.find(key); it != lut_hash_.end()) {
        ++stats_.hash_hits;
        return XLit::lit(Lit(it->second, false));
    }
    const Var y = solver_.new_var();
    const Lit sel = s.as_lit();
    solver_.add_clause(~sel, ~hi.as_lit(), equal(y, true));
    solver_.add_clause(~sel, hi.as_lit(), equal(y, false));
    solver_.add_clause(sel, ~lo.as_lit(), equal(y, true));
    solver_.add_clause(sel, lo.as_lit(), equal(y, false));
    lut_hash_.emplace(key, y);
    return XLit::lit(Lit(y, false));
}

CircuitEncoder::XLit CircuitEncoder::encode_lut(std::array<XLit, 4> t, XLit a,
                                                XLit b) {
    // Reduce to a multiplexer whenever the lookup reads one input only.
    if (a.is_const()) {
        const int base = a.const_value() ? 2 : 0;
        return encode_mux(b, t[static_cast<std::size_t>(base + 1)],
                          t[static_cast<std::size_t>(base)]);
    }
    if (b.is_const()) {
        const int col = b.const_value() ? 1 : 0;
        return encode_mux(a, t[static_cast<std::size_t>(2 + col)],
                          t[static_cast<std::size_t>(col)]);
    }
    if (a == b) return encode_mux(a, t[3], t[0]);
    if (a == b.negated()) return encode_mux(a, t[2], t[1]);
    if (t[0] == t[1] && t[2] == t[3]) return encode_mux(a, t[2], t[0]);
    if (t[0] == t[2] && t[1] == t[3]) return encode_mux(b, t[1], t[0]);
    // An entry on an input's own variable is known in its row.
    for (int r = 0; r < 4; ++r) {
        XLit& d = t[static_cast<std::size_t>(r)];
        for (const auto& [in, v] : {std::pair{a, (r & 2) != 0},
                                    std::pair{b, (r & 1) != 0}})
            if (!d.is_const() && d.as_lit().var() == in.as_lit().var())
                d = XLit::constant((d == in) == v);
    }
    if (std::all_of(t.begin(), t.end(), [](XLit x) { return x.is_const(); })) {
        std::uint8_t tt = 0;
        for (int r = 0; r < 4; ++r)
            if (t[static_cast<std::size_t>(r)].const_value())
                tt = static_cast<std::uint8_t>(tt | (1u << r));
        return encode_fn(core::Bool2(tt), a, b);
    }

    const LutKey key{{a.code, b.code, t[0].code, t[1].code, t[2].code, t[3].code}};
    if (const auto it = lut_hash_.find(key); it != lut_hash_.end()) {
        ++stats_.hash_hits;
        return XLit::lit(Lit(it->second, false));
    }
    // Two clauses per row with a literal entry, one per constant entry: at
    // most 8 clauses of 4 literals.
    const Var y = solver_.new_var();
    const Lit la = a.as_lit();
    const Lit lb = b.as_lit();
    for (int r = 0; r < 4; ++r) {
        const Lit ga = lit_guard(la, (r & 2) != 0);
        const Lit gb = lit_guard(lb, (r & 1) != 0);
        const XLit d = t[static_cast<std::size_t>(r)];
        if (d.is_const()) {
            solver_.add_clause(ga, gb, equal(y, d.const_value()));
            continue;
        }
        solver_.add_clause(Clause{ga, gb, ~d.as_lit(), equal(y, true)});
        solver_.add_clause(Clause{ga, gb, d.as_lit(), equal(y, false)});
    }
    lut_hash_.emplace(key, y);
    return XLit::lit(Lit(y, false));
}

Encoding CircuitEncoder::encode(const netlist::Netlist& nl,
                                const std::vector<Var>& shared_pis,
                                const std::vector<Var>& shared_keys) {
    if (!nl.dffs().empty())
        throw std::invalid_argument(
            "CircuitEncoder: netlist is sequential; apply unroll_for_scan first");
    if (!shared_pis.empty() && shared_pis.size() != nl.inputs().size())
        throw std::invalid_argument("CircuitEncoder: shared_pis size mismatch");
    const std::uint64_t v0 = num_vars(solver_), c0 = num_clauses(solver_);

    Encoding enc;
    std::vector<XLit> val(nl.size(), XLit::constant(false));

    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        const Var v = shared_pis.empty() ? solver_.new_var() : shared_pis[i];
        enc.pis.push_back(v);
        val[nl.inputs()[i]] = XLit::lit(Lit(v, false));
    }

    int total_key_bits = 0;
    enc.key_offset = camo_key_offsets(nl, &total_key_bits);
    if (!shared_keys.empty() &&
        shared_keys.size() != static_cast<std::size_t>(total_key_bits))
        throw std::invalid_argument("CircuitEncoder: shared_keys size mismatch");
    for (int i = 0; i < total_key_bits; ++i)
        enc.keys.push_back(shared_keys.empty()
                               ? solver_.new_var()
                               : shared_keys[static_cast<std::size_t>(i)]);

    for (const GateId id : nl.topological_order()) {
        const Gate& g = nl.gate(id);
        switch (g.type) {
            case CellType::Input:
                break;
            case CellType::Dff:
                throw std::logic_error("CircuitEncoder: unexpected DFF");
            case CellType::Const0:
            case CellType::Const1:
                // Encode-time constant: no variable, no clause (one shared
                // constant variable serves any that must become a literal).
                val[id] = XLit::constant(g.type == CellType::Const1);
                ++stats_.gates_folded;
                break;
            case CellType::Logic: {
                const XLit a = fold(val[g.a]);
                const XLit b =
                    g.b == kNoGate ? XLit::constant(false) : fold(val[g.b]);
                if (g.is_camouflaged()) {
                    const auto ci = static_cast<std::size_t>(g.camo_index);
                    val[id] = encode_camo(
                        nl.camo_cells()[ci],
                        enc.keys.data() + enc.key_offset[ci], a, b);
                } else {
                    val[id] = encode_fn(g.fn, a, b);
                }
                break;
            }
        }
    }

    enc.outs.reserve(nl.outputs().size());
    for (const netlist::PortRef& po : nl.outputs())
        enc.outs.push_back(realize(fold(val[po.gate])));
    count_since(v0, c0);
    return enc;
}

void CircuitEncoder::add_agreement(const netlist::Netlist& nl,
                                   const std::vector<Var>& keys,
                                   const std::vector<bool>& x,
                                   const std::vector<bool>& y) {
    const std::uint64_t v0 = num_vars(solver_), c0 = num_clauses(solver_);
    // Cone-restricted sweep: only the steps feeding the key-cone frontier
    // and the primary outputs run, which is exactly the set
    // encode_agreement reads.
    encode_agreement(nl, keys, x, y, cache_for(nl).sim->run_frontier_single(x));
    count_since(v0, c0, 1);
}

void CircuitEncoder::add_agreement_pair(const netlist::Netlist& nl,
                                        const std::vector<Var>& keys1,
                                        const std::vector<Var>& keys2,
                                        const std::vector<bool>& x,
                                        const std::vector<bool>& y) {
    const std::uint64_t v0 = num_vars(solver_), c0 = num_clauses(solver_);
    const std::span<const char> values =
        cache_for(nl).sim->run_frontier_single(x);
    encode_agreement(nl, keys1, x, y, values);
    encode_agreement(nl, keys2, x, y, values);
    count_since(v0, c0, 2);
}

void CircuitEncoder::add_agreement_batch(
    const netlist::Netlist& nl, const std::vector<std::vector<Var>>& keys_list,
    const std::vector<std::vector<bool>>& xs,
    const std::vector<std::vector<bool>>& ys) {
    if (xs.size() != ys.size())
        throw std::invalid_argument("CircuitEncoder: batch size mismatch");
    const std::size_t n_pis = nl.inputs().size();
    const netlist::Simulator& sim = *cache_for(nl).sim;
    const std::vector<GateId>& reads = nl.frontier_read_set();
    // Multi-word cone-restricted sweeps: up to kSweepWords x 64 queued
    // patterns share one pass over the frontier sub-plan.
    constexpr std::size_t kSweepWords = 16;
    std::vector<std::uint64_t> pi_words;
    std::vector<char> values(nl.size(), 0);
    for (std::size_t base = 0; base < xs.size(); base += kSweepWords * 64) {
        const std::size_t lanes =
            std::min<std::size_t>(kSweepWords * 64, xs.size() - base);
        const std::size_t n_words = (lanes + 63) / 64;
        pi_words.assign(n_pis * n_words, 0);
        for (std::size_t i = 0; i < n_pis; ++i)
            for (std::size_t j = 0; j < lanes; ++j)
                if (xs[base + j].at(i))
                    pi_words[i * n_words + j / 64] |= std::uint64_t{1} << (j % 64);
        const std::span<const std::uint64_t> words =
            sim.run_frontier_words(pi_words, n_words);
        for (std::size_t j = 0; j < lanes; ++j) {
            const std::size_t w = j / 64;
            const std::size_t bit = j % 64;
            for (const GateId g : reads)
                values[g] = static_cast<char>(
                    (words[std::size_t{g} * n_words + w] >> bit) & 1);
            const std::uint64_t v0 = num_vars(solver_);
            const std::uint64_t c0 = num_clauses(solver_);
            for (const std::vector<Var>& keys : keys_list)
                encode_agreement(nl, keys, xs[base + j], ys[base + j], values);
            count_since(v0, c0, keys_list.size());
        }
    }
}

void CircuitEncoder::encode_agreement(const netlist::Netlist& nl,
                                      const std::vector<Var>& keys,
                                      const std::vector<bool>& x,
                                      const std::vector<bool>& y,
                                      std::span<const char> values) {
    if (x.size() != nl.inputs().size())
        throw std::invalid_argument("CircuitEncoder: agreement input size mismatch");
    if (y.size() != nl.outputs().size())
        throw std::invalid_argument("CircuitEncoder: agreement output size mismatch");
    const NetlistCache& cache = cache_for(nl);
    if (keys.size() != static_cast<std::size_t>(cache.key_bits))
        throw std::invalid_argument("CircuitEncoder: agreement key size mismatch");

    // The DIP is fixed, so everything outside the key cone is a known
    // constant: `values` (one simulator sweep, possibly shared across key
    // copies or a 64-lane batch) replaces those gates outright, and only
    // the key-dependent remainder is encoded, reading simulated constants at
    // the cone frontier.
    const std::vector<char>& cone = nl.key_cone();
    const auto input = [&](GateId in) {
        return cone[in] != 0 ? fold(cone_val_[in])
                             : XLit::constant(values[in] != 0);
    };

    cone_val_.resize(nl.size());
    for (const GateId id : cache.cone_order) {
        const Gate& g = nl.gate(id);  // cone members are Logic by construction
        const XLit a = input(g.a);
        const XLit b = g.b == kNoGate ? XLit::constant(false) : input(g.b);
        if (g.is_camouflaged()) {
            const auto ci = static_cast<std::size_t>(g.camo_index);
            cone_val_[id] = encode_camo(nl.camo_cells()[ci],
                                        keys.data() + cache.key_offset[ci], a, b);
        } else {
            cone_val_[id] = encode_fn(g.fn, a, b);
        }
    }
    stats_.cone_gates += cache.cone_order.size();
    stats_.sim_gates += cache.sim_gates;

    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        const GateId d = nl.outputs()[o].gate;
        const bool want = y[o];
        if (cone[d] != 0) {
            const XLit v = fold(cone_val_[d]);
            if (v.is_const()) {
                if (v.const_value() != want) contradict();
            } else {
                solver_.add_clause(want ? v.as_lit() : ~v.as_lit());
            }
        } else if ((values[d] != 0) != want) {
            // The oracle response disagrees with a key-independent output:
            // no key can ever satisfy this observation (stochastic-oracle
            // inconsistency). Falsify the formula at the root.
            contradict();
        }
    }
}

void CircuitEncoder::add_difference(const std::vector<Lit>& a,
                                    const std::vector<Lit>& b) {
    add_difference_impl(a, b, std::nullopt);
}

void CircuitEncoder::add_difference(const std::vector<Lit>& a,
                                    const std::vector<Lit>& b, Lit guard) {
    add_difference_impl(a, b, guard);
}

void CircuitEncoder::add_difference_impl(const std::vector<Lit>& a,
                                         const std::vector<Lit>& b,
                                         std::optional<Lit> guard) {
    if (a.size() != b.size())
        throw std::invalid_argument("CircuitEncoder: add_difference size mismatch");
    const std::uint64_t v0 = num_vars(solver_), c0 = num_clauses(solver_);
    // XOR each pair through the folding/hashing machinery, then demand
    // one true. A constant-true XOR discharges the constraint outright;
    // all-constant-false means the vectors are provably equal.
    Clause any;
    bool satisfied = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const XLit d =
            encode_fn(core::Bool2::XOR(), xlit_of(a[i]), xlit_of(b[i]));
        if (d.is_const()) {
            if (d.const_value()) satisfied = true;
            continue;
        }
        any.push_back(d.as_lit());
    }
    if (!satisfied) {
        if (any.empty()) {
            // Provably equal: unguarded, the formula is refuted at the
            // root; guarded, only the selector is forced off (the DIP
            // solve under {guard} answers Unsat, extraction under
            // {~guard} proceeds).
            if (guard)
                solver_.add_clause(~*guard);
            else
                contradict();
        } else {
            if (guard) any.push_back(~*guard);
            solver_.add_clause(std::move(any));
        }
    }

    count_since(v0, c0);
}

void CircuitEncoder::add_difference(const std::vector<Var>& a,
                                    const std::vector<Var>& b) {
    if (a.size() != b.size())
        throw std::invalid_argument("CircuitEncoder: add_difference size mismatch");
    std::vector<Lit> al;
    std::vector<Lit> bl;
    al.reserve(a.size());
    bl.reserve(b.size());
    for (const Var v : a) al.push_back(Lit(v, false));
    for (const Var v : b) bl.push_back(Lit(v, false));
    add_difference(al, bl);
}

}  // namespace gshe::sat
