// plan_inspect — print the static structure of any codec's encode plan.
//
//   plan_inspect [--codec isal|isal-d|zerasure|cerasure|dialga|rs16|lrc]
//                [--k N] [--m N] [--l N] [--block BYTES]
//                [--shuffle] [--distance D] [--xpline-first D] [--widen]
//                [--ops N]
//
// Shows op counts, distinct/repeat loads, prefetch lead distances and
// per-stripe traffic; with --ops N also dumps the first N ops. Useful
// for understanding why a configuration behaves the way it does before
// running the simulator at all.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "common/env.h"
#include "dialga/dialga.h"
#include "ec/isal.h"
#include "ec/isal_decompose.h"
#include "ec/lrc.h"
#include "ec/plan_stats.h"
#include "ec/rs16.h"
#include "ec/xor_codec.h"

namespace {

const char* KindName(ec::PlanOp::Kind k) {
  switch (k) {
    case ec::PlanOp::Kind::kLoad:
      return "LOAD ";
    case ec::PlanOp::Kind::kStore:
      return "STNT ";
    case ec::PlanOp::Kind::kStoreCached:
      return "STC  ";
    case ec::PlanOp::Kind::kPrefetch:
      return "PREF ";
    case ec::PlanOp::Kind::kCompute:
      return "COMP ";
    case ec::PlanOp::Kind::kFence:
      return "FENCE";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string codec_name = "isal";
  std::size_t k = 12, m = 4, l = 2, block = 1024, dump_ops = 0;
  ec::IsalPlanOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A missing or malformed number is a usage error.
    auto number = [&](std::size_t* out) {
      std::uint64_t n = 0;
      if (!common::ParseU64(value(), &n)) {
        std::cerr << "missing or malformed value for " << a << "\n";
        std::exit(2);
      }
      *out = static_cast<std::size_t>(n);
    };
    if (a == "--codec") {
      const char* v = value();
      if (!v) return 2;
      codec_name = v;
    } else if (a == "--k") {
      number(&k);
    } else if (a == "--m") {
      number(&m);
    } else if (a == "--l") {
      number(&l);
    } else if (a == "--block") {
      number(&block);
    } else if (a == "--shuffle") {
      opts.shuffle_rows = true;
    } else if (a == "--distance") {
      number(&opts.prefetch_distance);
    } else if (a == "--xpline-first") {
      number(&opts.xpline_first_distance);
    } else if (a == "--widen") {
      opts.widen_to_xpline = true;
    } else if (a == "--ops") {
      number(&dump_ops);
    } else {
      std::cerr << "unknown flag " << a << "\n";
      return 2;
    }
  }

  const simmem::ComputeCost cost{};
  ec::EncodePlan plan;
  if (codec_name == "isal") {
    plan = ec::IsalCodec(k, m).encode_plan_with(block, cost, opts);
  } else if (codec_name == "isal-d") {
    plan = ec::IsalDecomposeCodec(k, m).encode_plan(block, cost);
  } else if (codec_name == "zerasure") {
    const auto z = ec::MakeZerasure(k, m);
    if (!z) {
      std::cerr << "Zerasure search does not converge for k > 32\n";
      return 1;
    }
    plan = z->encode_plan(block, cost);
  } else if (codec_name == "cerasure") {
    plan = ec::MakeCerasure(k, m)->encode_plan(block, cost);
  } else if (codec_name == "dialga") {
    plan = dialga::DialgaCodec(k, m).encode_plan(block, cost);
  } else if (codec_name == "rs16") {
    plan = ec::Rs16Codec(k, m).encode_plan_with(block, cost, opts);
  } else if (codec_name == "lrc") {
    plan = ec::LrcCodec(k, m, l).encode_plan(block, cost);
  } else {
    std::cerr << "unknown codec '" << codec_name << "'\n";
    return 2;
  }

  std::cout << codec_name << " RS(" << k << "," << m << ")";
  if (codec_name == "lrc") std::cout << " l=" << l;
  std::cout << "\n" << ec::FormatPlanStats(plan, ec::AnalyzePlan(plan));

  if (dump_ops > 0) {
    std::cout << "\nfirst " << std::min(dump_ops, plan.ops.size())
              << " ops:\n";
    for (std::size_t i = 0; i < std::min(dump_ops, plan.ops.size()); ++i) {
      const ec::PlanOp& op = plan.ops[i];
      std::cout << "  " << KindName(op.kind);
      if (op.kind == ec::PlanOp::Kind::kCompute) {
        std::cout << op.cycles << " cycles";
      } else if (op.kind != ec::PlanOp::Kind::kFence) {
        std::cout << "slot " << op.block << " +" << op.offset;
      }
      std::cout << "\n";
    }
  }
  return 0;
}
