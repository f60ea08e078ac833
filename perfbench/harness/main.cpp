// Benchmark harness entry point.
//
//   perfbench_harness --workload <read-uniform|read-hot|update-mix|build>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --workdir <dir> --trace_out <file>
//                     [--workers <n>] [--rps <r> | --batches <n> --read_rps <r>]
//
// Prints one JSON line: the metrics (end-to-end with --trace 0, per-layer
// with --trace 1), the correctness tally, the sample count behind each
// percentile and the run's identity. Exits 1 when a correctness check
// failed, 2 on a usage or set-up error. perfbench/run.py builds and runs
// it with the offered rates, update count and worker counts written in
// BENCHMARK.json.
#include <cstdio>
#include <exception>
#include <fstream>

#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options o(argc, argv);
    const std::string workload = o.str("workload");
    const bool trace = o.count("trace") != 0;
    Tracer tracer;
    Report r;
    record_identity(r);
    r.identity["workload"] = workload;
    r.identity["seed"] = o.str("seed");
    if (workload == "read-uniform" || workload == "read-hot") {
      run_read(o, workload == "read-hot", trace, tracer, r);
    } else if (workload == "update-mix") {
      run_update_mix(o, trace, tracer, r);
    } else if (workload == "build") {
      run_build(o, trace, tracer, r);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
      return 2;
    }
    if (trace) {
      std::ofstream out(o.str("trace_out"));
      out.precision(17);
      for (const Span& s : tracer.spans()) {
        out << "{\"name\": \"" << s.name << "\", \"request\": " << s.request
            << ", \"parent\": " << s.parent << ", \"start_s\": " << s.start_s
            << ", \"end_s\": " << s.end_s << "}\n";
      }
    }
    std::printf("%s\n", r.to_json().c_str());
    std::fflush(stdout);
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
