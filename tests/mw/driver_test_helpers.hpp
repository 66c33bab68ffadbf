#pragma once

// Helpers for MWDriver tests whose tasks carry one int64 in and one out.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "mw/mw_driver.hpp"

namespace sfopt::test {

/// first, first + 1, ..., first + count - 1.
inline std::vector<std::int64_t> integers(std::int64_t first, std::int64_t count) {
  std::vector<std::int64_t> v;
  for (std::int64_t i = 0; i < count; ++i) v.push_back(first + i);
  return v;
}

/// Submit one task per value (its input is the value as one int64), drain
/// the driver, and return each task's int64 result in submit order,
/// matched by task id.
inline std::vector<std::int64_t> submitAndDrain(mw::MWDriver& driver,
                                                const std::vector<std::int64_t>& values) {
  std::map<std::uint64_t, std::size_t> slot;
  for (std::size_t i = 0; i < values.size(); ++i) {
    mw::MessageBuffer b;
    b.pack(values[i]);
    slot[driver.submit(std::move(b))] = i;
  }
  std::vector<std::int64_t> results(values.size(), -1);
  for (auto& c : driver.drain()) results[slot.at(c.id)] = c.payload.unpackInt64();
  return results;
}

}  // namespace sfopt::test
