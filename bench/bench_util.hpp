#pragma once

// Shared plumbing for the experiment binaries: --csv output, titled
// sections, and a tiny argument parser. Every binary runs with no arguments
// and prints the paper-shaped tables to stdout.

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/wmsn.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"

namespace wmsn::bench {

struct BenchArgs {
  std::optional<std::string> csvPath;
  unsigned threads = 0;  ///< 0 = hardware concurrency
};

inline BenchArgs parseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv" && i + 1 < argc) {
      args.csvPath = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      args.threads = parseFlag<unsigned>(arg, argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--csv <path>] [--threads <n>]\n";
      std::exit(0);
    }
  }
  return args;
}

inline void banner(const std::string& experimentId, const std::string& title,
                   const std::string& paperClaim) {
  std::cout << "================================================================\n"
            << experimentId << " — " << title << "\n"
            << "paper: " << paperClaim << "\n"
            << "================================================================\n\n";
}

inline void maybeWriteCsv(const BenchArgs& args, const CsvWriter& csv) {
  if (!args.csvPath) return;
  csv.writeFile(*args.csvPath);
  std::cout << "(csv written to " << *args.csvPath << ")\n";
}

}  // namespace wmsn::bench
