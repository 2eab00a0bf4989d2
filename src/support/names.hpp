// Name tables for enums spelled on command lines and in the daemon
// protocol.
//
// Each such enum keeps one table of {spelling, value} pairs next to its
// definition; every parser and printer reads that table, so a spelling
// exists in exactly one place.  A value may have several spellings (an
// alias); the first one listed is canonical and is what name_of prints.
// Spellings are string literals, so name_of can return them as C strings.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace lazymc {

template <class E>
struct Named {
  std::string_view name;
  E value;
};

/// The value spelled `name`, or nullopt when the table has no such
/// spelling.
template <class E, std::size_t N>
constexpr std::optional<E> from_name(const Named<E> (&table)[N],
                                     std::string_view name) {
  for (const Named<E>& entry : table) {
    if (entry.name == name) return entry.value;
  }
  return std::nullopt;
}

/// The canonical spelling of `value` ("?" when the table lacks it).
template <class E, std::size_t N>
constexpr const char* name_of(const Named<E> (&table)[N], E value) {
  for (const Named<E>& entry : table) {
    if (entry.value == value) return entry.name.data();
  }
  return "?";
}

/// Every spelling joined with '|' ("auto|hash|sorted"), for error
/// messages that list the accepted values.
template <class E, std::size_t N>
std::string name_list(const Named<E> (&table)[N]) {
  std::string out;
  for (const Named<E>& entry : table) {
    if (!out.empty()) out += '|';
    out += entry.name;
  }
  return out;
}

}  // namespace lazymc
