#pragma once

// Shared plumbing for the experiment binaries: --csv output, titled
// sections, and a strict argument parser. Every binary runs with no arguments
// and prints the paper-shaped tables to stdout.

#include <cstdlib>
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
  unsigned threads = 0;  ///< --threads, where admitted; 0 = all cores
  unsigned reps = 10;    ///< --reps, where admitted (>= 1)
  bool check = false;    ///< --check, where admitted
};

/// Optional flags a bench admits on top of --csv and --help; a bench admits
/// only the flags it reads.
enum BenchFlags : unsigned {
  kThreads = 1,       ///< --threads <n>
  kRepsAndCheck = 2,  ///< --reps <n> and --check
};

/// Parses --csv <path> and --help, plus the admitted `flags`. An unknown or
/// unadmitted flag, a flag without its value, a bad number or --reps 0
/// prints a message naming the flag and exits 2.
inline BenchArgs parseArgs(int argc, char** argv, unsigned flags = 0) {
  const auto fail = [](const std::string& message) {
    std::cerr << "error: " << message << "\n";
    std::exit(2);
  };
  const bool threads = (flags & kThreads) != 0;
  const bool repsAndCheck = (flags & kRepsAndCheck) != 0;
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--csv") {
      args.csvPath = value();
    } else if (threads && arg == "--threads") {
      args.threads = parseFlag<unsigned>(arg, value());
    } else if (repsAndCheck && arg == "--reps") {
      args.reps = parseFlag<unsigned>(arg, value());
      if (args.reps == 0) fail("--reps must be >= 1");
    } else if (repsAndCheck && arg == "--check") {
      args.check = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << argv[0] << " [--csv <path>]"
                << (threads ? " [--threads <n>]" : "")
                << (repsAndCheck ? " [--reps <n>] [--check]" : "") << "\n";
      std::exit(0);
    } else {
      fail("unknown option: " + arg);
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
