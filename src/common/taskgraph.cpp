#include "common/taskgraph.hpp"

#include "common/json.hpp"

namespace p8::common {

std::size_t count_stolen(const std::vector<TaskRecord>& records) {
  std::size_t stolen = 0;
  for (const TaskRecord& r : records) stolen += r.stolen ? 1 : 0;
  return stolen;
}

std::string timeline_json(const std::string& bench, std::size_t workers,
                          const std::vector<TaskRecord>& records,
                          double wall_s) {
  std::string out = "{\n";
  out += "  \"bench\": " + json_quote(bench) + ",\n";
  out += "  \"workers\": " + std::to_string(workers) + ",\n";
  out += "  \"tasks\": " + std::to_string(records.size()) + ",\n";
  out += "  \"steals\": " + std::to_string(count_stolen(records)) + ",\n";
  out += "  \"wall_s\": " + json_number(wall_s) + ",\n";
  out += "  \"timeline\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TaskRecord& r = records[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + json_quote(r.name) +
           ", \"worker\": " + std::to_string(r.worker) +
           ", \"start_s\": " + json_number(r.start_s) +
           ", \"end_s\": " + json_number(r.end_s) +
           ", \"stolen\": " + (r.stolen ? "true" : "false") +
           ", \"cancelled\": " + (r.cancelled ? "true" : "false") + "}";
  }
  out += records.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace p8::common
