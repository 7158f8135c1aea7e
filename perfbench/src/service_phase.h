#ifndef KGEVAL_PERFBENCH_SERVICE_PHASE_H_
#define KGEVAL_PERFBENCH_SERVICE_PHASE_H_

#include <memory>
#include <string>

#include "perfbench/src/fixture.h"
#include "perfbench/src/trace.h"
#include "service/eval_server.h"

namespace perfbench {

/// One service set-up: EvalServer::Start plus the `LOAD <service preset>
/// valid` round trip on a fresh connection. Returns its wall time.
kgeval::Result<double> SetupService(const WorkloadSpec& spec, Tracer* tracer,
                                    std::unique_ptr<kgeval::EvalServer>* out);

/// The service phase for `seconds`: open-loop EVAL requests cycling
/// through the checkpoints of `fixture` (the service preset's) on two
/// pipelined connections, PING on a third, each at the workload's fixed
/// rate and timed from its due time. A window whose generator fell behind
/// its schedule is not scored and is measured again, up to three windows;
/// the run is flagged when none kept to it.
/// Every served EVAL reply is checked byte for byte against a direct
/// EstimateCheckpointOnPools call on a reconstructed session. The traced
/// run first times the layers of one EVAL on the idle server. `inject`
/// "reply-byte" flips one served byte for the gate self-test.
void RunServicePhase(const WorkloadSpec& spec, uint64_t seed, double seconds,
                     const std::string& inject, const Fixture& fixture,
                     kgeval::EvalServer* server, Tracer* tracer,
                     Report* report);

}  // namespace perfbench

#endif  // KGEVAL_PERFBENCH_SERVICE_PHASE_H_
