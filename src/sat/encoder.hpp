#pragma once
// Attack-encoding front end: one object that turns (camouflaged) netlists
// into CNF for the oracle-guided attacks and the equivalence checker.
//
// Every gate is encoded propagation-complete: whatever value its inputs
// force on its output, unit propagation derives.
//   * A plain gate out = f(a, b) gets one binary clause per controlling
//     input value ("a = 0 forces out = 0" for an AND) and a row clause
//     (a != va) or (b != vb) or (out == f(va, vb)) only for the rows no
//     controlling value covers: 3 clauses for an AND-type gate, 4 ternary
//     clauses for XOR/XNOR.
//   * A camouflaged gate with candidate set {f_0..f_{k-1}} reads
//     ceil(log2 k) *key variables* (code c selects f_c). Once per key block
//     the encoder builds four truth-table literals t[r], r = 2a + b: a
//     constant when every candidate agrees on row r; an alias of one key
//     bit, in either polarity, when that bit equals row r for every code;
//     else one fresh variable defined by (key != c) or (t = f_c(r)). Unused
//     codes (k not a power of two) are forbidden, also once per block. For
//     the 16-function GSHE primitive the four key bits are literally the
//     truth table, so t[r] = key[r] with no clause at all — the densest
//     possible key space, which is what drives the Table IV results. Each
//     copy of the cell is then the lookup out = t[2a + b]: no variable and
//     no clause when both inputs are constant, a 4-clause multiplexer
//     (3 literals each) for one free input, 8 clauses of 4 literals for two.
//
// Four mechanisms stack on top of that:
//   (a) three-valued (constant/literal) propagation — constant inputs fold
//       through plain gates and cell lookups at encode time, so a gate whose
//       value is forced contributes no variable and no clause;
//   (b) root-fixed folding — a literal the solver has fixed at the root
//       (SolverBackend::fixed_value: a key bit an earlier agreement
//       decided, a gate the DIP constraints pinned) is read as a constant at
//       every gate input, every t[r] and every agreement output. The
//       "dimacs" backend reports no fixed literals, so it does not fold;
//       its CNF is larger but admits the same keys;
//   (c) structural hashing on (normalized truth table, input literals) and
//       on cell lookups (input and t literals) — the two miter copies and
//       repeated agreement cones share subformulas instead of duplicating
//       them (input-polarity/commutative/output-polarity normalization,
//       AIG-style);
//   (d) key-cone reduction in add_agreement — the DIP input is fixed, so
//       the 64-way Simulator evaluates every gate outside
//       Netlist::key_cone() and only the key-dependent remainder is
//       encoded, with the simulated values injected as constants at the
//       cone frontier. Each agreement costs O(|key cone|) variables, not
//       O(|circuit|).
// One shared constant variable serves every encode-time constant that still
// needs a literal (e.g. a primary output that folds).
//
// The clause stream is a pure function of the call sequence and of the
// backend's deterministic root state, which is what keeps campaign CSVs
// byte-identical across threads, shards and resume.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/backend.hpp"

namespace gshe::netlist {
class Simulator;  // netlist/simulator.hpp
}

namespace gshe::sat {

/// Counters of what one encoder instance emitted and saved. vars/clauses
/// are measured as backend deltas around each public call. Rides
/// JSON/journal only — never the deterministic CSV.
struct EncoderStats {
    std::uint64_t vars = 0;     ///< solver variables created by this encoder
    std::uint64_t clauses = 0;  ///< clauses emitted by this encoder
    std::uint64_t gates_folded = 0;  ///< gates reduced to constants/aliases
    std::uint64_t hash_hits = 0;     ///< subformulas served from the hash
    std::uint64_t agreements = 0;       ///< add_agreement calls
    std::uint64_t agreement_vars = 0;    ///< vars from agreements alone
    std::uint64_t agreement_clauses = 0; ///< clauses from agreements alone
    std::uint64_t cone_gates = 0;  ///< cone gates encoded across agreements
    std::uint64_t sim_gates = 0;   ///< gates replaced by simulation instead
};

/// Field-wise sum — Double DIP uses two encoders (2-DIP miter + single-DIP
/// miter) and reports one combined counter set.
void accumulate(EncoderStats& into, const EncoderStats& from);

/// Variable/literal map of one circuit instance. Outputs are literals: an
/// output may fold to a constant or to the complement of an internal node.
struct Encoding {
    std::vector<Var> pis;   ///< one var per primary input (netlist order)
    std::vector<Lit> outs;  ///< one literal per primary output
    std::vector<Var> keys;  ///< key vars, concatenated per camo cell
    /// Offset of each camo cell's key bits within `keys`.
    std::vector<int> key_offset;
};

/// The encoder, bound to one backend for its lifetime. Hash/constant state
/// persists across calls — sound for incremental solving because gate
/// definitions are monotone (re-encoding would only re-add the identical
/// clauses) — which is exactly what lets miter copies and agreement cones
/// share structure.
class CircuitEncoder {
public:
    explicit CircuitEncoder(SolverBackend& solver);
    ~CircuitEncoder();  // out-of-line: owns a unique_ptr<Simulator>

    const EncoderStats& stats() const { return stats_; }

    /// Encodes one instance of `nl`. If `shared_pis` is non-empty it must
    /// list one existing variable per primary input, which the instance
    /// reuses; likewise `shared_keys` for the key variables. Throws
    /// std::invalid_argument for sequential netlists (apply
    /// unroll_for_scan first) and size mismatches.
    Encoding encode(const netlist::Netlist& nl,
                    const std::vector<Var>& shared_pis = {},
                    const std::vector<Var>& shared_keys = {});

    /// Adds the agreement constraint "the key selected by `keys` must map
    /// input x to oracle response y": simulate outside the key cone, encode
    /// only the cone with frontier constants. A non-cone output that
    /// contradicts y falsifies the formula outright (the stochastic-oracle
    /// inconsistency case).
    void add_agreement(const netlist::Netlist& nl,
                       const std::vector<Var>& keys,
                       const std::vector<bool>& x,
                       const std::vector<bool>& y);

    /// Adds the agreement for BOTH miter key copies in one call, emitting
    /// exactly the clause stream of add_agreement(keys1) followed by
    /// add_agreement(keys2), but runs the non-cone simulation sweep once
    /// per DIP instead of once per key copy.
    void add_agreement_pair(const netlist::Netlist& nl,
                            const std::vector<Var>& keys1,
                            const std::vector<Var>& keys2,
                            const std::vector<bool>& x,
                            const std::vector<bool>& y);

    /// Batched form: for each i, adds the agreement (xs[i], ys[i]) for every
    /// key vector in `keys_list` (pattern-major, matching the sequential
    /// call order), sharing one packed 64-lane Simulator sweep per chunk of
    /// 64 patterns instead of one single-lane sweep per pattern x key copy.
    /// The clause stream is identical to the equivalent sequence of
    /// add_agreement calls.
    void add_agreement_batch(const netlist::Netlist& nl,
                             const std::vector<std::vector<Var>>& keys_list,
                             const std::vector<std::vector<bool>>& xs,
                             const std::vector<std::vector<bool>>& ys);

    /// Constrains vectors a and b to differ in at least one position.
    void add_difference(const std::vector<Lit>& a, const std::vector<Lit>& b);
    /// Same over raw variables (key vectors).
    void add_difference(const std::vector<Var>& a, const std::vector<Var>& b);

    /// Guarded form: every emitted difference clause is routed through the
    /// selector literal `guard` (each gets ~guard appended), so the
    /// constraint is active under assumption {guard} and vacuous under
    /// {~guard}. This is what lets an attack solve DIP iterations and
    /// extract keys on the same solver: the miter's difference is engaged
    /// per solve, never baked in. A provably-equal pair emits the unit
    /// clause {~guard} instead of falsifying the formula at the root.
    void add_difference(const std::vector<Lit>& a, const std::vector<Lit>& b,
                        Lit guard);

    /// a XOR b, folded and hashed like any plain gate.
    Lit add_xor(Lit a, Lit b);
    /// OR of `xs` (constant false for an empty input), folded and hashed.
    Lit add_or(const std::vector<Lit>& xs);
    /// Forces variable `v` to `value` with a unit clause.
    void fix_var(Var v, bool value);

    /// The shared constant literal of the given polarity. One variable per
    /// encoder serves both polarities (fixed true once, on first use).
    Lit constant(bool value);

private:
    /// Encode-time value: a literal or a known constant.
    struct XLit {
        // code >= 0: a Lit code; kTrue/kFalse: constants.
        static constexpr std::int32_t kTrue = -1;
        static constexpr std::int32_t kFalse = -2;
        std::int32_t code = kFalse;

        static XLit constant(bool v) { return {v ? kTrue : kFalse}; }
        static XLit lit(Lit l) { return {static_cast<std::int32_t>(l.code())}; }
        bool is_const() const { return code < 0; }
        bool const_value() const { return code == kTrue; }
        Lit as_lit() const { return Lit::from_code(code); }
        XLit negated() const {
            if (is_const()) return constant(!const_value());
            return lit(~as_lit());
        }
        bool operator==(const XLit&) const = default;
    };

    struct PlainKey {
        Var a = kNoVar;
        Var b = kNoVar;
        std::uint8_t tt = 0;
        bool operator==(const PlainKey&) const = default;
    };
    struct PlainKeyHash {
        std::size_t operator()(const PlainKey& k) const {
            std::uint64_t h = 0x9e3779b97f4a7c15ULL;
            h = (h ^ static_cast<std::uint64_t>(k.a)) * 0x100000001b3ULL;
            h = (h ^ static_cast<std::uint64_t>(k.b)) * 0x100000001b3ULL;
            h = (h ^ k.tt) * 0x100000001b3ULL;
            return static_cast<std::size_t>(h);
        }
    };

    /// Hash key of a cell lookup out = t[2a + b], {a, b, t[0..3]}, or of a
    /// multiplexer out = s ? hi : lo, {s, hi, lo} padded with a code no
    /// XLit takes — XLit codes, so constant entries are part of the key.
    struct LutKey {
        std::array<std::int32_t, 6> codes{};
        bool operator==(const LutKey&) const = default;
    };
    struct LutKeyHash {
        std::size_t operator()(const LutKey& k) const {
            std::uint64_t h = 0x9e3779b97f4a7c15ULL;
            for (const std::int32_t c : k.codes)
                h = (h ^ static_cast<std::uint32_t>(c)) * 0x100000001b3ULL;
            return static_cast<std::size_t>(h);
        }
    };

    /// One camo cell's key variables in one key copy, with its truth-table
    /// literals. Built on first use; block_of_var_ finds it by its first
    /// key variable.
    struct KeyBlock {
        std::vector<Var> vars;
        std::array<XLit, 4> t;
    };

    /// Per-netlist state of the agreement hot path.
    struct NetlistCache {
        const netlist::Netlist* nl = nullptr;
        std::unique_ptr<netlist::Simulator> sim;
        std::vector<int> key_offset;  ///< see Encoding::key_offset
        int key_bits = 0;             ///< Netlist::key_bit_count()
        std::vector<netlist::GateId> cone_order;  ///< key cone, topological
        std::size_t sim_gates = 0;    ///< logic gates outside the key cone
    };

    XLit encode_fn(core::Bool2 fn, XLit a, XLit b);
    /// One copy of a camo cell: `key_bits` points at its key block.
    XLit encode_camo(const netlist::CamoCell& cell, const Var* key_bits,
                     XLit a, XLit b);
    /// The truth-table literals of the key block starting at `key_bits`.
    const std::array<XLit, 4>& truth_table_of(const netlist::CamoCell& cell,
                                              const Var* key_bits);
    XLit encode_lut(std::array<XLit, 4> t, XLit a, XLit b);
    XLit encode_mux(XLit s, XLit hi, XLit lo);
    XLit unary_of(XLit x, bool f0, bool f1);
    /// Root-fixed literals become constants; everything else is unchanged.
    XLit fold(XLit x) const;
    XLit xlit_of(Lit l) const;
    Lit realize(XLit x);
    /// Falsifies the formula at the root (empty clause).
    void contradict();

    /// Emits one agreement's cone CNF from precomputed simulator values
    /// (`values` covers at least Netlist::frontier_read_set()).
    void encode_agreement(const netlist::Netlist& nl,
                          const std::vector<Var>& keys,
                          const std::vector<bool>& x,
                          const std::vector<bool>& y,
                          std::span<const char> values);
    /// Adds the solver growth since (v0, c0) to vars/clauses, and to the
    /// agreement counters too when `agreements` is non-zero.
    void count_since(std::uint64_t v0, std::uint64_t c0,
                     std::uint64_t agreements = 0);
    /// Cached per-netlist state: one Simulator per netlist identity, so
    /// scratch buffers persist across DIPs instead of being reallocated per
    /// call, and the key-block offsets computed once.
    const NetlistCache& cache_for(const netlist::Netlist& nl);
    void add_difference_impl(const std::vector<Lit>& a,
                             const std::vector<Lit>& b,
                             std::optional<Lit> guard);

    SolverBackend& solver_;
    EncoderStats stats_;

    std::unordered_map<PlainKey, Var, PlainKeyHash> plain_hash_;
    std::unordered_map<LutKey, Var, LutKeyHash> lut_hash_;
    std::vector<KeyBlock> blocks_;
    std::vector<std::int32_t> block_of_var_;  ///< index into blocks_, or -1
    Var const_var_ = kNoVar;

    NetlistCache cache_;
    std::vector<XLit> cone_val_;  ///< encode_agreement scratch
};

}  // namespace gshe::sat
