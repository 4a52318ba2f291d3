#include "serve/cache.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "io/atomic_file.hpp"
#include "io/json_reader.hpp"
#include "pp/monte_carlo.hpp"

namespace ppk::serve {

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buffer.str();
}

/// True iff `frame` is an object whose "scenario" member is `hash_hex`.
bool names_scenario(const io::JsonValue& frame, const std::string& hash_hex) {
  const io::JsonValue* scenario = frame.find("scenario");
  return scenario != nullptr && scenario->is_string() &&
         scenario->as_string() == hash_hex;
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::entry_path(const std::string& hash_hex,
                                    std::uint64_t seed) const {
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "%" PRIu64, seed);
  return dir_ + "/sim-" + hash_hex + "-" + suffix + ".json";
}

std::string ResultCache::exact_entry_path(const std::string& hash_hex) const {
  return dir_ + "/exact-" + hash_hex + ".json";
}

std::optional<std::string> ResultCache::find(const std::string& hash_hex,
                                             std::uint64_t seed) const {
  if (!enabled()) return std::nullopt;
  std::optional<std::string> entry = read_file(entry_path(hash_hex, seed));
  if (!entry) return std::nullopt;
  // A hit must parse and name the requested (scenario, seed) itself, so an
  // entry copied or renamed under another key is a miss.  Entries drawn
  // under another engine-law version (or before the stamp existed) are
  // misses too: the caller recomputes and overwrites them.
  const std::optional<io::JsonValue> frame = io::parse_json(*entry);
  if (!frame || !names_scenario(*frame, hash_hex)) return std::nullopt;
  const io::JsonValue* entry_seed = frame->find("seed");
  const io::JsonValue* law = frame->find("engine_law");
  if (entry_seed == nullptr || !entry_seed->is_number() ||
      entry_seed->as_u64() != seed || law == nullptr || !law->is_number() ||
      law->as_u64() != std::uint64_t{pp::kEngineLawVersion}) {
    return std::nullopt;
  }
  return entry;
}

std::optional<std::string> ResultCache::find_exact(
    const std::string& hash_hex) const {
  if (!enabled()) return std::nullopt;
  std::optional<std::string> entry = read_file(exact_entry_path(hash_hex));
  if (!entry) return std::nullopt;
  // Entries naming another scenario, and untagged (pre-v2) or
  // differently-tagged ones, are misses: the caller recomputes and
  // overwrites them with a current frame.
  const std::optional<io::JsonValue> frame = io::parse_json(*entry);
  if (!frame || !names_scenario(*frame, hash_hex)) return std::nullopt;
  const io::JsonValue* schema = frame->find("exact_schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kExactResultSchema) {
    return std::nullopt;
  }
  return entry;
}

bool ResultCache::store(const std::string& hash_hex, std::uint64_t seed,
                        const std::string& frame) {
  if (!enabled()) return false;
  ::mkdir(dir_.c_str(), 0755);  // best effort; write reports real failures
  return io::write_file_atomic(entry_path(hash_hex, seed), frame);
}

bool ResultCache::store_exact(const std::string& hash_hex,
                              const std::string& frame) {
  if (!enabled()) return false;
  ::mkdir(dir_.c_str(), 0755);
  return io::write_file_atomic(exact_entry_path(hash_hex), frame);
}

}  // namespace ppk::serve
