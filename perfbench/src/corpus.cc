#include "corpus.h"

#include <algorithm>
#include <utility>

#include "query/rpq.h"

namespace perfbench {

namespace {

std::vector<std::string> RegisterlessFamily(int n) {
  std::vector<std::string> out;
  for (char x : kLetters) {
    for (char y : kLetters) {
      if (static_cast<int>(out.size()) == n) return out;
      out.push_back(std::string("/") + x + "//" + y);
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& RegQueries(int reg) {
  static const std::vector<std::vector<std::string>> regs = [] {
    std::vector<std::string> r2 = RegisterlessFamily(8);
    r2.push_back("/a/b");
    r2.push_back("/a/c");
    return std::vector<std::vector<std::string>>{
        RegisterlessFamily(32), r2, {"/a/b"}, {"//a/b"}};
  }();
  return regs[static_cast<size_t>(reg)];
}

const char* RegName(int reg) {
  static const char* names[kNumRegs] = {"R1", "R2", "R3", "R4"};
  return names[reg];
}

const char* FormatName(sst::StreamFormat format) {
  switch (format) {
    case sst::StreamFormat::kCompactMarkup:
      return "markup";
    case sst::StreamFormat::kXmlLite:
      return "xml";
    case sst::StreamFormat::kCompactTerm:
      return "term";
  }
  return "?";
}

sst::PlanOptions PlanOptionsFor(sst::StreamFormat format) {
  sst::PlanOptions options;
  options.format = format;
  options.encoding = format == sst::StreamFormat::kCompactTerm
                         ? sst::StreamEncoding::kTerm
                         : sst::StreamEncoding::kMarkup;
  return options;
}

CompiledReg CompileReg(int reg, sst::StreamFormat format,
                       const sst::Alphabet& alphabet, SpanRecorder& trace) {
  CompiledReg out;
  out.reg = reg;
  out.format = format;
  const std::vector<std::string>& queries = RegQueries(reg);
  if (queries.size() == 1) {
    {
      ScopedSpan span(trace, "compile", reg);
      out.single = sst::QueryPlan::Compile(
          sst::Rpq::FromXPath(queries[0], alphabet), PlanOptionsFor(format));
    }
    out.single_pool = std::make_unique<sst::SessionPool>(out.single);
  } else {
    std::vector<sst::BatchQuery> batch;
    for (const std::string& q : queries) {
      batch.push_back(sst::BatchQuery{sst::QuerySyntax::kXPath, q});
    }
    sst::MultiQueryOptions options;
    options.plan = PlanOptionsFor(format);
    {
      ScopedSpan span(trace, "compile", reg);
      out.batch = sst::MultiQueryPlan::Compile(batch, alphabet, options);
    }
    out.batch_pool = std::make_unique<sst::BatchSessionPool>(out.batch);
  }
  return out;
}

PooledStream::PooledStream(CompiledReg& reg) : reg_(reg) {
  if (reg.single_pool) {
    single_ = reg.single_pool->Acquire();
  } else {
    batch_ = reg.batch_pool->Acquire();
  }
}

void PooledStream::Release() {
  if (single_) reg_.single_pool->Release(std::move(single_));
  if (batch_) reg_.batch_pool->Release(std::move(batch_));
}

Verdict PooledStream::verdict() const {
  if (single_) return VerdictOf(*single_, {single_->matches()});
  return VerdictOf(*batch_, batch_->query_matches());
}

const char* PooledStream::tier_name() const {
  if (single_) {
    if (single_->plan().kind() == sst::EvaluatorKind::kStackBaseline) {
      return "stack";
    }
    switch (single_->selector().active_tier()) {
      case sst::StreamingSelector::Tier::kFusedByteTable:
        return "fused_byte";
      case sst::StreamingSelector::Tier::kFusedDraTable:
        return "fused_dra";
      case sst::StreamingSelector::Tier::kGenericMachine:
        return "generic";
    }
  }
  switch (batch_->active_tier()) {
    case sst::MultiTier::kFusedProduct:
      return "product_fused";
    case sst::MultiTier::kLazyProduct:
      return "product_lazy";
    case sst::MultiTier::kMixed:
      return "mixed";
    case sst::MultiTier::kIndependent:
      return "independent";
  }
  return "?";
}

Verdict OfflineVerdict(const CompiledReg& reg, std::string_view doc) {
  if (reg.single) {
    sst::Session session(reg.single);
    if (session.Feed(doc)) session.Finish();
    return VerdictOf(session, {session.matches()});
  }
  sst::BatchSession session(reg.batch);
  if (session.Feed(doc)) session.Finish();
  return VerdictOf(session, session.query_matches());
}

void FeedDocument(PooledStream& stream, std::string_view doc, size_t chunk) {
  for (size_t at = 0; at < doc.size(); at += chunk) {
    if (!stream.Feed(doc.substr(at, chunk))) return;
  }
  stream.Finish();
}

std::string GenerateDocument(sst::StreamFormat format, bool pretty,
                             int64_t bytes, sst::Rng& rng) {
  std::string out;
  out.reserve(static_cast<size_t>(bytes) + 1024);
  std::vector<char> open;
  auto indent = [&] {
    if (pretty && !out.empty()) {
      out.push_back('\n');
      out.append(2 * open.size(), ' ');
    }
  };
  auto open_tag = [&](char label) {
    indent();
    switch (format) {
      case sst::StreamFormat::kCompactMarkup:
        out.push_back(label);
        break;
      case sst::StreamFormat::kXmlLite:
        out.push_back('<');
        out.push_back(label);
        out.push_back('>');
        break;
      case sst::StreamFormat::kCompactTerm:
        out.push_back(label);
        out.push_back('{');
        break;
    }
    open.push_back(label);
  };
  auto close_tag = [&] {
    char label = open.back();
    open.pop_back();
    indent();
    switch (format) {
      case sst::StreamFormat::kCompactMarkup:
        out.push_back(static_cast<char>(label - 'a' + 'A'));
        break;
      case sst::StreamFormat::kXmlLite:
        out.append("</");
        out.push_back(label);
        out.push_back('>');
        break;
      case sst::StreamFormat::kCompactTerm:
        out.push_back('}');
        break;
    }
  };

  open_tag('a');
  while (static_cast<int64_t>(out.size()) < bytes) {
    const size_t depth = open.size();
    const double p_open = depth < 4 ? 0.7 : depth < 12 ? 0.5 : 0.3;
    if (depth == 1 || rng.NextBool(p_open)) {
      open_tag(kLetters[rng.NextBelow(kLetters.size())]);
    } else {
      close_tag();
    }
  }
  while (!open.empty()) close_tag();
  if (pretty) out.push_back('\n');
  return out;
}

}  // namespace perfbench
