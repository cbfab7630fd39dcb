// Figure 3 — breakdown of time spent processing a single-process GRAM
// request.
//
// Paper values:  initgroups() 0.7 s, authentication 0.5 s, misc 0.01 s,
// fork 0.001 s.  Each component here is *measured* by driving the live
// protocol piece in isolation (not read back from the cost model): the GSI
// handshake against a real gatekeeper endpoint, an initgroups() lookup
// against the shared NIS server, a fork-scheduler submission, and the
// residual request-processing time of a full submission.
#include <cstdio>

#include "app/behaviors.hpp"
#include "gram/client.hpp"
#include "gram/nis.hpp"
#include "gsi/protocol.hpp"
#include "sched/fork.hpp"
#include "testbed/grid.hpp"
#include "testbed/report.hpp"

using namespace grid;

int main() {
  testbed::Grid grid(testbed::CostModel::paper());
  grid.add_host("origin2000", 64);
  app::BarrierStats stats;
  app::install_app(grid.executables(), "app", app::StartupProfile{}, &stats);
  const gsi::Credential cred = grid.make_user("/CN=bench", "bench");

  // --- authentication: a GSI mutual-auth handshake against the gatekeeper.
  net::Endpoint auth_ep(grid.network(), "auth-probe");
  gsi::ClientContext auth_client(auth_ep, grid.ca(), cred, grid.costs().gsi);
  sim::Time auth_time = -1;
  {
    const sim::Time t0 = grid.engine().now();
    auth_client.authenticate(
        grid.host("origin2000")->contact(), 60 * sim::kSecond,
        [&](util::Result<gsi::Session> s) {
          if (s.is_ok()) auth_time = grid.engine().now() - t0;
        });
    grid.run();
  }

  // --- initgroups(): one NIS lookup (remote group database consultation).
  net::Endpoint nis_ep(grid.network(), "nis-probe");
  gram::NisClient nis_client(nis_ep, grid.nis().id());
  sim::Time initgroups_time = -1;
  {
    const sim::Time t0 = grid.engine().now();
    nis_client.initgroups("bench", 60 * sim::kSecond,
                          [&](const util::Status& groups) {
                            if (groups.is_ok()) {
                              initgroups_time = grid.engine().now() - t0;
                            }
                          });
    grid.run();
  }

  // --- fork(): process creation under the fork scheduler.
  sim::Time fork_time = -1;
  {
    sched::ForkScheduler forker(grid.engine(),
                                grid.costs().fork_cost_per_process);
    const sim::Time t0 = grid.engine().now();
    sched::JobDescriptor d;
    d.id = 1;
    d.count = 1;
    forker.submit(d, [&](sched::JobId) { fork_time = grid.engine().now() - t0; },
                  nullptr);
    grid.run();
    forker.complete(1);
  }

  // --- full request, to derive the misc. residual.
  sim::Time full_time = -1;
  {
    net::Endpoint ep(grid.network(), "remote-client");
    gram::Client client(ep, grid.ca(), cred, grid.costs().gsi);
    const sim::Time t0 = grid.engine().now();
    client.submit(grid.host("origin2000")->contact(),
                  "&(resourceManagerContact=origin2000)(count=1)"
                  "(executable=app)",
                  60 * sim::kSecond, [&](util::Result<gram::JobId> r) {
                    if (r.is_ok()) full_time = grid.engine().now() - t0;
                  });
    grid.run();
  }

  const double auth_s = sim::to_seconds(auth_time);
  const double ig_s = sim::to_seconds(initgroups_time);
  const double fork_s = sim::to_seconds(fork_time);
  const double full_s = sim::to_seconds(full_time);
  const double misc_s = full_s - auth_s - ig_s;  // request parsing & setup

  testbed::print_heading(
      "Figure 3: breakdown of a single-process GRAM request");
  testbed::Table table({"operation", "measured_s", "paper_s"});
  table.add_row({"initgroups()", testbed::Table::num(ig_s), "0.7"});
  table.add_row({"authentication", testbed::Table::num(auth_s), "0.5"});
  table.add_row({"misc.", testbed::Table::num(misc_s), "0.01"});
  table.add_row({"fork()", testbed::Table::num(fork_s), "0.001"});
  testbed::print_table(table);
  testbed::print_metric("request_accept_total", full_s, "s");
  std::printf("\nshape check: initgroups() is the largest contributor, then\n"
              "authentication; all other costs are an order of magnitude "
              "smaller.\n");
  const bool shape_ok = ig_s > auth_s && auth_s > 10 * misc_s &&
                        misc_s > fork_s;
  std::printf("ordering initgroups > auth >> misc > fork: %s\n",
              shape_ok ? "HOLDS" : "VIOLATED");
  return shape_ok ? 0 : 1;
}
