// perfbench: one benchmark run of one workload.
//
//   perfbench --workload lu-160k|gnn-10k|service-2op --seed N --seconds S
//             --trace 0|1 --model FIXTURE.bin [--spans spans.csv]
//
// Prints informational lines, then one JSON object on the last line:
//   {"attempted": A, "failed": F, "errors": [...], "metrics": {name: {value, unit}}}
// perfbench/run.py turns it into the benchmark's result record.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

void print_result(const perfbench::RunResult& r) {
  for (const std::string& line : r.info) std::printf("# %s\n", line.c_str());
  std::printf("{\"attempted\": %ld, \"failed\": %ld, \"errors\": [", r.attempted,
              r.failed);
  bool first = true;
  for (const std::string& e : r.errors) {
    std::printf("%s\"%s\"", first ? "" : ", ", json_escape(e).c_str());
    first = false;
  }
  std::printf("], \"metrics\": {");
  first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      args.workload = v;
    } else if (key == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(v);
    } else if (key == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (key == "--model") {
      args.model_path = v;
    } else if (key == "--spans") {
      args.spans_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  perfbench::RunResult result;
  try {
    if (args.workload == "lu-160k" || args.workload == "gnn-10k") {
      perfbench::run_closed_loop(args, result);
    } else if (args.workload == "service-2op") {
      perfbench::run_service(args, result);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    result.errors.push_back(std::string("exception: ") + e.what());
  }
  print_result(result);
  return result.errors.empty() && result.failed == 0 ? 0 : 1;
}
