// MPICH-G style application (§4.3): "the Grid-enabled MPICH-G
// implementation of MPI uses DUROC to start the elements of an MPI job.
// In this case, all DUROC calls are hidden in the MPI library, and an
// application does not have to make any modifications to benefit from
// DUROC co-allocation."
//
// This example defines an "MPI application" whose code only sees the
// gridmpi Communicator; the DUROC barrier and the §3.3 configuration
// bootstrap are hidden in the runtime.  The application computes a global
// dot-product-ish reduction and a ring token pass across three machines.
//
//   $ ./gridmpi_app
#include <cstdio>
#include <memory>

#include "config/gridmpi.hpp"
#include "core/app_barrier.hpp"
#include "testbed/grid.hpp"

using namespace grid;

namespace {

/// What the application programmer writes: rank logic over a communicator.
void application_main(cfg::Communicator& comm, testbed::Grid& grid) {
  // Every rank contributes rank+1; the global sum is n(n+1)/2.
  comm.allreduce_sum(comm.rank() + 1, [&comm, &grid](std::int64_t total) {
    if (comm.rank() == 0) {
      std::printf("[%7.3fs] allreduce: sum over %d ranks = %lld\n",
                  sim::to_seconds(grid.engine().now()), comm.size(),
                  static_cast<long long>(total));
    }
    // Ring token pass: rank r forwards to (r+1) % size; rank 0 starts.
    const std::int32_t next = (comm.rank() + 1) % comm.size();
    comm.recv(/*tag=*/1, [&comm, &grid, next](std::int32_t src,
                                              util::Reader& payload) {
      const std::int64_t hops = payload.i64();
      if (comm.rank() == 0) {
        std::printf("[%7.3fs] ring token returned to rank 0 after %lld hops "
                    "(last hop from rank %d)\n",
                    sim::to_seconds(grid.engine().now()),
                    static_cast<long long>(hops), src);
        return;
      }
      util::Writer w;
      w.i64(hops + 1);
      comm.send(next, 1, w.take_bytes());
    });
    if (comm.rank() == 0) {
      util::Writer w;
      w.i64(1);
      comm.send(next, 1, w.take_bytes());
    }
  });
}

/// The "MPI library": barrier + bootstrap hidden from application code.
class GridMpiProcess final : public gram::ProcessBehavior {
 public:
  explicit GridMpiProcess(testbed::Grid* grid) : grid_(grid) {}

  void start(gram::ProcessApi& api) override {
    api_ = &api;
    barrier_ = std::make_unique<core::BarrierClient>(api);
    barrier_->enter(
        true, "",
        [this](const core::ReleaseView& release) {
          comm_ = std::make_unique<cfg::Communicator>(barrier_->endpoint(),
                                                      release.info());
          comm_->init([this] { application_main(*comm_, *grid_); });
        },
        [this](const std::string&) { api_->exit(true, "aborted"); });
  }

  void on_terminate() override {
    comm_.reset();
    barrier_.reset();
  }

 private:
  testbed::Grid* grid_;
  gram::ProcessApi* api_ = nullptr;
  std::unique_ptr<core::BarrierClient> barrier_;
  std::unique_ptr<cfg::Communicator> comm_;
};

}  // namespace

int main() {
  testbed::Grid grid;
  grid.add_host("cluster-a", 64);
  grid.add_host("cluster-b", 64);
  grid.add_host("cluster-c", 64);
  grid.executables().install("mpi-app", [&grid] {
    return std::make_unique<GridMpiProcess>(&grid);
  });

  auto mechanisms = grid.make_coallocator("mpirun", "/O=Grid/CN=mpi");
  // "mpirun": one DUROC request, all hidden from the application.
  auto* req = mechanisms->create_request({});
  req->add_rsl(testbed::rsl_multi({
      testbed::rsl_subjob("cluster-a", 4, "mpi-app", "required"),
      testbed::rsl_subjob("cluster-b", 3, "mpi-app", "required"),
      testbed::rsl_subjob("cluster-c", 5, "mpi-app", "required"),
  }));
  std::printf("mpirun: starting a 12-rank MPI job over 3 machines via "
              "DUROC\n\n");
  req->commit();
  grid.run();

  const auto& config = req->runtime_config();
  std::printf("\nMPI_COMM_WORLD layout:\n");
  for (const auto& layout : config.subjobs) {
    std::printf("  %-9s ranks [%2d..%2d]\n", layout.contact.c_str(),
                layout.rank_base, layout.rank_base + layout.size - 1);
  }
  return config.total_processes == 12 ? 0 : 1;
}
