#pragma once

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace lightnas::cli {

/// Flags every command of the lightnas tool accepts.
inline const std::vector<std::string> kGlobalFlags = {"threads", "gemm-block",
                                                      "isa", "tensor-pool"};

/// The flags each command reads besides kGlobalFlags; a command missing
/// here is unknown.
inline const std::map<std::string, std::vector<std::string>> kCommandFlags = {
    {"devices", {}},
    {"measure",
     {"device", "batch", "seed", "metric", "samples", "robust",
      "fault-outliers", "fault-transients", "fault-hangs", "fault-drift",
      "out"}},
    {"train-predictor",
     {"dataset", "seed", "unit", "epochs", "batch", "log-every", "out"}},
    {"eval-predictor", {"predictor", "dataset"}},
    {"search",
     {"predictor", "target", "predictor2", "target2", "task-size", "seed",
      "epochs", "warmup", "verbose", "resume", "checkpoint-dir",
      "checkpoint-every", "out"}},
    {"search-campaign",
     {"predictor", "targets", "tolerance", "patience", "preempt", "seed",
      "epochs", "warmup", "verbose", "task-size", "resume", "checkpoint-dir",
      "checkpoint-every", "out", "csv"}},
    {"show", {"result", "arch", "device", "batch"}},
    {"predict", {"predictor", "arch"}},
    {"serve-bench",
     {"predictor", "device", "seed", "samples", "epochs", "pool", "zipf",
      "clients", "requests", "workers", "batch", "queue", "cache",
      "baseline", "deadline-ms", "overflow", "cache-ttl-ms", "breaker",
      "stall-ms", "fallback", "storm-transients", "storm-hangs",
      "storm-hang-ms", "storm-drift", "storm-outliers"}},
};

/// Minimal `--flag value` argument parser for the lightnas tool.
/// Flags are always long-form and always take one value (booleans are
/// "--flag 1"); positional arguments collect everything else in order.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) == 0) {
        if (i + 1 >= argc) {
          throw std::runtime_error("flag '" + token + "' needs a value");
        }
        flags_[token.substr(2)] = argv[++i];
      } else {
        positional_.push_back(token);
      }
    }
  }

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const {
    return flags_.count(name) != 0;
  }

  std::string get(const std::string& name,
                  const std::string& fallback = {}) const {
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      if (fallback.empty()) {
        throw std::runtime_error("missing required flag --" + name);
      }
      return fallback;
    }
    return it->second;
  }

  double get_double(const std::string& name, double fallback) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : parse_double(name, it->second);
  }

  double require_double(const std::string& name) const {
    return parse_double(name, get(name));
  }

  std::size_t get_size(const std::string& name, std::size_t fallback) const {
    auto it = flags_.find(name);
    return it == flags_.end() ? fallback : parse_size(name, it->second);
  }

  /// Throws std::runtime_error naming the first flag that `command`
  /// does not take (see kCommandFlags): a typo'd or removed flag must
  /// fail, not be silently ignored.
  void reject_unknown(const std::string& command) const {
    const auto entry = kCommandFlags.find(command);
    if (entry == kCommandFlags.end()) {
      throw std::runtime_error("unknown command '" + command + "'");
    }
    const auto lists = [](const std::vector<std::string>& names,
                          const std::string& name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (const auto& [key, value] : flags_) {
      if (!lists(kGlobalFlags, key) && !lists(entry->second, key)) {
        throw std::runtime_error("unknown flag --" + key + " for '" +
                                 command + "' (see lightnas --help)");
      }
    }
  }

 private:
  // std::stod("3.5GHz") happily returns 3.5; a typo'd unit or a pasted
  // cell must be an error, not a silently truncated value. Both parsers
  // demand the whole token be consumed and name the offending flag.
  [[noreturn]] static void bad_value(const std::string& name,
                                     const std::string& text,
                                     const char* expected) {
    throw std::runtime_error("flag --" + name + ": '" + text + "' is not " +
                             expected);
  }

  static double parse_double(const std::string& name,
                             const std::string& text) {
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(text, &consumed);
    } catch (const std::exception&) {
      bad_value(name, text, "a number");
    }
    if (consumed != text.size()) bad_value(name, text, "a number");
    return value;
  }

  static std::size_t parse_size(const std::string& name,
                                const std::string& text) {
    if (!text.empty() && text[0] == '-') {
      bad_value(name, text, "a non-negative integer");
    }
    std::size_t consumed = 0;
    unsigned long long value = 0;
    try {
      value = std::stoull(text, &consumed);
    } catch (const std::exception&) {
      bad_value(name, text, "a non-negative integer");
    }
    if (consumed != text.size()) {
      bad_value(name, text, "a non-negative integer");
    }
    return static_cast<std::size_t>(value);
  }

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace lightnas::cli
