#pragma once
// Uniform interface over the oracle-guided attacks.
//
// The three attacks of the Sec. V study (Subramanyan SAT [8], AppSAT [11],
// Double DIP [12]) historically were three unrelated free functions; the
// campaign engine needs to treat "which attack" as data, so this registry
// exposes them behind one polymorphic run() keyed by a short name:
//
//   sat_attack / appsat_attack / double_dip_attack  <->
//   attack_by_name("sat") / ("appsat") / ("double_dip")
//
// Every registered attack honours AttackOptions — including the
// deterministic max_conflicts budget — and returns the common AttackResult,
// so job matrices can mix attacks freely.

#include <string>
#include <vector>

#include "attack/attack_result.hpp"
#include "attack/oracle.hpp"
#include "netlist/netlist.hpp"

namespace gshe::attack {

class Attack {
public:
    virtual ~Attack() = default;

    /// Registry key ("sat", "appsat", "double_dip").
    virtual const std::string& name() const = 0;
    /// Human-readable citation-style label ("SAT [8]", ...).
    virtual const std::string& label() const = 0;

    virtual AttackResult run(const netlist::Netlist& camo_nl, Oracle& oracle,
                             const AttackOptions& options) const = 0;

    /// Whether run() reads AttackOptions::seed. An attack that does not
    /// returns the same result under every seed on one instance with a
    /// deterministic oracle, so the campaign engine runs it once per shared
    /// defense instance and lets sibling seeds reuse that result.
    virtual bool reads_seed() const = 0;
};

/// Registry lookup; nullptr for unknown names.
const Attack* find_attack(const std::string& name);

/// Throwing lookup for call sites that treat unknown names as a bug.
const Attack& attack_by_name(const std::string& name);

/// The registered short names, in registration order.
std::vector<std::string> attack_names();

}  // namespace gshe::attack
