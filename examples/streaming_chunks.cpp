// Incremental streaming: the document arrives in arbitrary byte chunks
// (network reads) and matches are reported the moment their opening tag
// goes by — the deployment model pre-selection is designed for. The
// evaluator is registerless, so the per-chunk state is a single integer no
// matter how deep the document nests.

#include <cstdio>
#include <string>

#include "base/match_sink.h"
#include "base/rng.h"
#include "core/stackless.h"
#include "dra/streaming.h"
#include "trees/encoding.h"
#include "trees/generators.h"

int main(int argc, char** argv) {
  int nodes = argc > 1 ? std::atoi(argv[1]) : 5000;
  sst::Alphabet alphabet = sst::Alphabet::FromLetters("abc");

  // Generate a document (rooted at <a> so /a//b can match) and serialize
  // it; pretend it arrives over a socket.
  sst::Rng rng(99);
  sst::Tree document;
  document.AddRoot(0);  // 'a'
  for (int i = 1; i < nodes; ++i) {
    int parent = rng.NextBool(0.6) ? i - 1
                                   : static_cast<int>(rng.NextBelow(i));
    document.AddChild(parent, static_cast<sst::Symbol>(rng.NextBelow(3)));
  }
  std::string bytes =
      sst::ToCompactMarkup(alphabet, sst::Encode(document));

  sst::Rpq rpq = sst::Rpq::FromXPath("/a//b", alphabet);
  sst::CompiledQuery compiled =
      sst::CompileQuery(rpq, sst::StreamEncoding::kMarkup);
  std::printf("query /a//b -> %s\n", sst::EvaluatorKindName(compiled.kind));

  sst::StreamingSelector selector(
      compiled.machine.get(), sst::StreamingSelector::Format::kCompactMarkup,
      &alphabet);
  std::printf("scanner path: %s\n", selector.using_fused_fast_path()
                                        ? "fused byte-table (registerless)"
                                        : "generic table-driven");
  // Each match arrives at the sink as soon as its opening tag is read.
  sst::CollectingSink sink;
  selector.set_match_sink(&sink);
  size_t printed = 0;

  // Feed in awkwardly-sized chunks, as a socket would deliver them.
  size_t offset = 0;
  int chunks = 0;
  sst::Rng chunk_rng(7);
  while (offset < bytes.size()) {
    size_t len = 1 + chunk_rng.NextBelow(97);
    if (!selector.Feed(std::string_view(bytes).substr(offset, len))) {
      std::fprintf(stderr, "parse error: %s\n", selector.error().c_str());
      return 1;
    }
    offset += len;
    ++chunks;
    for (; printed < 5 && printed < sink.matches().size(); ++printed) {
      const int64_t start = sink.matches()[printed].start_offset;
      std::printf("  match at byte %lld <%c>, reported with chunk %d\n",
                  static_cast<long long>(start),
                  bytes[static_cast<size_t>(start)], chunks);
    }
  }
  if (!selector.Finish()) {
    std::fprintf(stderr, "incomplete document: %s\n",
                 selector.error().c_str());
    return 1;
  }
  std::printf("%lld nodes in %d chunks; %lld matches (first %zu shown)\n",
              static_cast<long long>(selector.nodes()), chunks,
              static_cast<long long>(selector.matches()), printed);
  sst::StreamStats stats = selector.stats();
  std::printf("stats: %lld bytes, %lld events, max depth %lld\n",
              static_cast<long long>(stats.bytes_fed),
              static_cast<long long>(stats.events),
              static_cast<long long>(stats.max_depth));
  return 0;
}
