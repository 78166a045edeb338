#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/lightnas.hpp"
#include "nn/parallel.hpp"
#include "nn/simd.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string host_block_json(const Options& options) {
  namespace nn = lightnas::nn;
  const lightnas::core::LightNasConfig defaults;
  std::ostringstream out;
  out << "{\"cpu\": " << json_string(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": "
      << json_string(nn::simd::isa_name(nn::simd::active_isa()))
      << ", \"compiler\": " << json_string("g++ " __VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"commit\": " << json_string(options.commit)
      << ", \"threads\": " << nn::ParallelContext::current().threads()
      << ", \"pool\": " << (defaults.pool_tensors ? "true" : "false")
      << ", \"plan\": " << (defaults.plan.enabled ? "true" : "false")
      << ", \"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << options.seconds
      << ", \"trace\": " << (options.trace ? "true" : "false") << "}";
  return out.str();
}

std::string forbidden_knob() {
  for (const char* name : {"LIGHTNAS_FAST", "LIGHTNAS_PLAN", "LIGHTNAS_ISA"}) {
    if (std::getenv(name) != nullptr) return name;
  }
  return "";
}

}  // namespace perfbench
