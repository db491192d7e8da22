#include "src/sssp/result.hpp"

#include "src/runtime/machine.hpp"

namespace acic::sssp {

void fill_machine_fields(const runtime::Machine& machine,
                         const runtime::RunStats& stats, SsspMetrics& metrics,
                         std::vector<runtime::SimTime>& pe_busy_us) {
  metrics.network_messages = stats.messages_sent;
  metrics.network_bytes = stats.bytes_sent;
  metrics.sim_time_us = stats.end_time_us;
  pe_busy_us.resize(machine.num_pes());
  for (runtime::PeId p = 0; p < machine.num_pes(); ++p) {
    pe_busy_us[p] = machine.pe_busy_us(p);
  }
}

}  // namespace acic::sssp
