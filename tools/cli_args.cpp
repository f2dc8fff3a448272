#include "cli_args.hpp"

namespace v6sonar::cli {

void fail(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  std::exit(2);
}

const char* value_of(int argc, char** argv, int& i) {
  if (i + 1 >= argc) fail(std::string(argv[i]) + " needs a value");
  return argv[++i];
}

bool parse_run_option(RunOptions& o, int argc, char** argv, int& i) {
  const char* const flag = argv[i];
  const auto is = [&](const char* name) { return std::strcmp(flag, name) == 0; };
  if (is("--agg")) {
    o.agg = parse_int<int>(flag, value_of(argc, argv, i));
    if (o.agg < 0 || o.agg > 128) fail("--agg must be between 0 and 128");
  } else if (is("--min-dsts")) {
    o.min_dsts = parse_int<std::uint32_t>(flag, value_of(argc, argv, i));
    if (o.min_dsts == 0) fail("--min-dsts must be at least 1");
  } else if (is("--timeout")) {
    o.timeout_sec = parse_seconds(flag, value_of(argc, argv, i));
    if (o.timeout_sec < 1) fail("--timeout must be at least 1 second");
  } else if (is("--cold-after")) {
    o.cold_after_sec = parse_seconds(flag, value_of(argc, argv, i));
    if (o.cold_after_sec < 0) fail("--cold-after must be >= 0 (0 = off)");
  } else if (is("--top")) {
    o.top = parse_int<std::size_t>(flag, value_of(argc, argv, i));
  } else if (is("--threads")) {
    o.threads = parse_int<int>(flag, value_of(argc, argv, i));
    if (o.threads < 0) fail("--threads must be >= 0 (0 = auto)");
  } else if (is("--ring-cap")) {
    o.ring_cap = parse_int<std::size_t>(flag, value_of(argc, argv, i));
    if (o.ring_cap < 8) fail("--ring-cap must be at least 8 slots");
  } else if (is("--events")) {
    o.events_out = value_of(argc, argv, i);
  } else if (is("--checkpoint")) {
    o.checkpoint = value_of(argc, argv, i);
  } else {
    return false;
  }
  return true;
}

}  // namespace v6sonar::cli
