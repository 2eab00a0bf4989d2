#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace lazymc::bench {
namespace {

[[noreturn]] void usage_and_exit(const std::string& bad_flag) {
  std::fprintf(stderr,
               "unknown flag: %s\n"
               "usage: bench --scale=tiny|small|medium --graphs=a,b,c "
               "--repeats=N --timeout=SECONDS --threads=N --json=PATH\n",
               bad_flag.c_str());
  std::exit(2);
}

// --- JSON export registry --------------------------------------------------
// Tables are recorded by Table::print() and flushed once at exit so every
// bench binary gains --json without touching its own code.

struct TableDump {
  std::string title;
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

std::string g_json_path;                 // empty = export disabled
std::vector<TableDump>* g_tables = nullptr;

/// True when `cell` is entirely a finite JSON-compatible number.
bool parse_number(const std::string& cell, double& out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  out = std::strtod(cell.c_str(), &end);
  return end == cell.c_str() + cell.size() && std::isfinite(out);
}

void flush_json_tables() {
  if (g_json_path.empty() || g_tables == nullptr) return;
  std::ofstream out(g_json_path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write JSON to %s\n",
                 g_json_path.c_str());
    return;
  }
  JsonWriter w(out);
  w.open();
  w.field("schema", "lazymc-bench-tables/1");
  w.open_array("tables");
  for (const TableDump& t : *g_tables) {
    w.open();
    w.field("title", t.title);
    w.open_array("headers");
    for (const std::string& h : t.headers) w.value(h);
    w.close_array();
    w.open_array("rows");
    for (const auto& row : t.rows) {
      w.open_array();
      for (const std::string& cell : row) {
        double num = 0;
        if (parse_number(cell, num)) {
          w.value(num);
        } else {
          w.value(cell);
        }
      }
      w.close_array();
    }
    w.close_array();
    w.close();
  }
  w.close_array();
  w.close();
  out << "\n";
}

void record_table(const std::string& title,
                  const std::vector<std::string>& headers,
                  const std::vector<std::vector<std::string>>& rows) {
  if (g_json_path.empty()) return;
  if (g_tables == nullptr) g_tables = new std::vector<TableDump>();
  std::string name = title;
  if (name.empty()) name = "table_" + std::to_string(g_tables->size() + 1);
  g_tables->push_back(TableDump{name, headers, rows});
}

}  // namespace

void enable_json_export(const std::string& path) {
  bool first = g_json_path.empty() && !path.empty();
  g_json_path = path;
  if (first) std::atexit(flush_json_tables);
}

Options parse_options(int argc, char** argv, Options defaults) {
  Options opt = std::move(defaults);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--scale=", 0) == 0) {
      const auto scale = from_name(suite::kScaleNames, value_of("--scale="));
      if (!scale) usage_and_exit(arg);
      opt.scale = *scale;
    } else if (arg.rfind("--graphs=", 0) == 0) {
      std::stringstream ss(value_of("--graphs="));
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) opt.graphs.push_back(item);
      }
    } else if (arg.rfind("--repeats=", 0) == 0) {
      opt.repeats = std::max(1, std::atoi(value_of("--repeats=").c_str()));
    } else if (arg.rfind("--timeout=", 0) == 0) {
      opt.timeout = std::atof(value_of("--timeout=").c_str());
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads = static_cast<std::size_t>(
          std::atoll(value_of("--threads=").c_str()));
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_path = value_of("--json=");
    } else {
      usage_and_exit(arg);
    }
  }
  if (opt.threads > 0) set_num_threads(opt.threads);
  if (!opt.json_path.empty()) enable_json_export(opt.json_path);
  return opt;
}

std::vector<suite::Instance> load_suite(const Options& options) {
  std::vector<suite::Instance> out;
  if (options.graphs.empty()) {
    out = suite::make_suite(options.scale);
  } else {
    for (const std::string& name : options.graphs) {
      out.push_back(suite::make_instance(name, options.scale));
    }
  }
  return out;
}

Timing time_runs(int repeats, const std::function<void()>& fn) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (int i = 0; i < repeats; ++i) {
    WallTimer timer;
    fn();
    samples.push_back(timer.elapsed());
  }
  Timing t;
  for (double s : samples) t.mean_seconds += s;
  t.mean_seconds /= samples.size();
  if (samples.size() > 1 && t.mean_seconds > 0) {
    double var = 0;
    for (double s : samples) var += (s - t.mean_seconds) * (s - t.mean_seconds);
    var /= (samples.size() - 1);
    t.stddev_pct = 100.0 * std::sqrt(var) / t.mean_seconds;
  }
  return t;
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print() const {
  record_table(title_, headers_, rows_);
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      std::printf("%c %*s", c == 0 ? '|' : '|',
                  static_cast<int>(widths[c]), cell.c_str());
      std::printf(" ");
    }
    std::printf("|\n");
  };
  print_row(headers_);
  for (std::size_t c = 0; c < widths.size(); ++c) {
    std::printf("|-%s-", std::string(widths[c], '-').c_str());
  }
  std::printf("|\n");
  for (const auto& row : rows_) print_row(row);
}

std::string fmt(double value, int digits) {
  if (std::isnan(value)) return "x";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

double median(std::vector<double> values) {
  std::erase_if(values, [](double v) { return std::isnan(v); });
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace lazymc::bench
