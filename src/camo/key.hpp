#pragma once
// Key handling for camouflaged netlists.
//
// A key is the concatenation of each camouflaged cell's candidate index,
// binary-encoded LSB-first, in camo-table order — the exact layout the CNF
// encoder (sat/encoder) gives its key variables, so a Key maps 1:1 onto a
// SAT model and back.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/boolean_function.hpp"
#include "netlist/netlist.hpp"

namespace gshe::camo {

struct Key {
    std::vector<bool> bits;

    std::size_t size() const { return bits.size(); }
    friend bool operator==(const Key&, const Key&) = default;
    std::string to_string() const;  ///< e.g. "0110_1011" grouped per cell? plain bits
};

/// The defender's key: encodes each cell's true-function index.
Key true_key(const netlist::Netlist& nl);

/// Decodes a key into one function per camouflaged cell. Returns
/// std::nullopt if any cell's code is out of range (possible only for keys
/// not produced by the constrained CNF encoding).
std::optional<std::vector<core::Bool2>> functions_for_key(
    const netlist::Netlist& nl, const Key& key);

/// True if `key` makes every camouflaged cell compute its true function.
/// (Stronger than key equality: distinct codes can map to equal functions.)
bool key_functionally_correct(const netlist::Netlist& nl, const Key& key);

}  // namespace gshe::camo
