// Fuzz target: the two line-oriented parse edges a deployment exposes.
//
//   * net::parse_request — every request line a TCP peer or stdin pipe
//     sends (src/net/session.h). It is the parse path of both a worker's
//     net::Session and pqs_router (the router runs the same
//     parse_request_header, then the same spec parse), and a parsed submit
//     then goes through api::canonicalize, the spec check Service::submit
//     and the router share. Contract: the ONLY failure mode is a thrown
//     CheckFailure.
//   * Journal::recover_text — every byte a crash may have left in a
//     write-ahead journal, including torn final lines and foreign files.
//     Contract: recovery NEVER throws; damage becomes warnings.
//
// The input is treated as one journal text (recover_text consumes multiple
// lines, so embedded newlines exercise the torn-tail scanner) and its
// first line as one wire request.
#include <cstddef>
#include <cstdint>
#include <string>

#include "api/serialize.h"
#include "common/check.h"
#include "net/session.h"
#include "service/journal.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  const std::string line = text.substr(0, text.find('\n'));
  try {
    const pqs::net::Request request = pqs::net::parse_request(line);
    if (request.op == pqs::net::Request::Op::kSubmit) {
      (void)pqs::api::canonicalize(request.spec);
    }
  } catch (const pqs::CheckFailure&) {
    // malformed request: the sanctioned rejection
  }

  // No try: anything recover_text lets escape is a durability bug (a
  // journal that cannot be read back is a journal that lost the jobs).
  const pqs::RecoveredJournal recovered = pqs::Journal::recover_text(text);
  if (recovered.pending.size() > recovered.accepted) {
    __builtin_trap();  // more unfinished jobs than accepted records
  }
  return 0;
}

#ifdef PQS_FUZZ_STANDALONE
#include "standalone_main.inc"
#endif
