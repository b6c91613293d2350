// gimbal_figs: the one executable that runs every paper figure, extension
// figure and ablation in bench/. Each fig*.cpp / ablation*.cpp registers
// one figure under its file stem (bench_util.h's RegisterFigure).
//
//   gimbal_figs --fig=<name> [--quick] [--seed=N] [--bench-json=PATH] ...
//   gimbal_figs --list
//
// Every flag but --fig and --list goes to the figure's ObsSession
// (bench_util.h, docs/OBSERVABILITY.md). The exit code is the figure's:
// non-zero when one of its self-checks failed. A missing or unknown --fig
// exits 2 and prints the figure names to stderr.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace gimbal::bench {
namespace {

void PrintNames(std::FILE* out) {
  for (const Figure& f : Figures()) std::fprintf(out, "%s\n", f.name.c_str());
}

int Main(int argc, char** argv) {
  std::vector<Figure>& figures = Figures();
  std::sort(figures.begin(), figures.end(),
            [](const Figure& a, const Figure& b) { return a.name < b.name; });

  std::string name;
  bool list = false;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--fig=", 0) == 0) {
      name = a.substr(6);
    } else if (a == "--list") {
      list = true;
    } else {
      args.push_back(a);
    }
  }
  if (list) {
    PrintNames(stdout);
    return 0;
  }

  const auto fig =
      std::find_if(figures.begin(), figures.end(),
                   [&](const Figure& f) { return f.name == name; });
  if (fig == figures.end()) {
    if (name.empty()) {
      std::fprintf(stderr, "error: --fig=<name> is required; figures:\n");
    } else {
      std::fprintf(stderr, "error: unknown figure '%s'; figures:\n",
                   name.c_str());
    }
    PrintNames(stderr);
    return 2;
  }
  FaultKnobs knobs = fig->knobs.value_or(FaultKnobs{});
  ObsSession session(fig->name, args, fig->knobs ? &knobs : nullptr);
  return fig->run(knobs);
}

}  // namespace
}  // namespace gimbal::bench

int main(int argc, char** argv) { return gimbal::bench::Main(argc, argv); }
