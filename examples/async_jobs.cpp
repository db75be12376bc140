// The service layer in one sitting: asynchronous submits, coalescing,
// priorities, progress, cancellation, and the queue/plan/exec timing split.
//
//   ./build/examples/async_jobs --threads 2 --queue-depth 64 --qubits 14
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/serialize.h"
#include "common/cli.h"
#include "common/math.h"
#include "service/flags.h"
#include "service/service.h"

using namespace pqs;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const ServiceOptions options = service::parse_service_flags(cli);
  const auto n = static_cast<unsigned>(
      cli.get_int("qubits", 14, "address bits (N = 2^qubits items)"));
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }
  cli.finish();

  Service service(options);
  std::cout << "service: " << options.threads << " worker(s), queue depth "
            << options.queue_capacity << "\n\n";

  // A burst of jobs: one spec submitted twice (they coalesce into ONE
  // driver execution), a different-seed variant, and a high-priority
  // latecomer that overtakes the FIFO.
  SearchSpec spec = SearchSpec::single_target(pow2(n), 4, pow2(n) / 3 + 1);
  spec.algorithm = "grk";
  spec.shots = 2000;

  std::vector<JobHandle> handles;
  handles.push_back(service.submit(spec));
  handles.push_back(service.submit(spec));  // identical -> coalesces
  SearchSpec variant = spec;
  variant.seed = 77;
  handles.push_back(service.submit(variant));
  SearchSpec urgent = spec;
  urgent.seed = 99;
  handles.push_back(service.submit(urgent, /*priority=*/10));

  for (std::size_t i = 0; i < handles.size(); ++i) {
    const JobStatus status = handles[i].wait();
    const SearchReport& report = handles[i].report();
    std::cout << "job " << i << " [" << to_string(status) << "] measured "
              << (report.block_answer ? "block " : "address ")
              << report.measured << (report.correct ? " ok" : " WRONG")
              << ", timing queue " << report.queue_ns << " ns / plan "
              << report.plan_ns << " ns / exec " << report.exec_ns << " ns\n";
  }
  const auto counter = [&](const std::string& name) {
    return service.metrics().counter("service." + name).value();
  };
  std::cout << "\nstats: " << counter("submitted") << " submitted, "
            << counter("coalesced_submits") << " coalesced, "
            << counter("executed") << " executed, " << counter("done")
            << " done\n";

  // Cancellation: a huge sweep we change our mind about.
  SearchSpec sweep = SearchSpec::single_target(pow2(n), 4, 5);
  sweep.algorithm = "noisy";
  sweep.noise.kind = qsim::NoiseKind::kDepolarizing;
  sweep.noise.probability = 1e-4;
  sweep.shots = 500000;
  JobHandle big = service.submit(sweep);
  while (big.status() == JobStatus::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  big.cancel();
  std::cout << "cancelled sweep: [" << to_string(big.wait()) << "] at "
            << big.progress() * 100.0 << "% done\n";

  // The same spec as JSON — what a pqs_serve client would send.
  std::cout << "\nwire form of the first request:\n"
            << api::to_json(spec).dump() << "\n";
  return 0;
}
