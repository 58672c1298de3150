#include "workflow/dot.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace bbsim::wf {

namespace {

std::string quote(const std::string& id) {
  std::string out = "\"";
  for (const char c : id) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

const char* kPalette[] = {"#8dd3c7", "#ffffb3", "#bebada", "#fb8072",
                          "#80b1d3", "#fdb462", "#b3de69", "#fccde5"};

}  // namespace

std::string to_dot(const Workflow& workflow, const DotOptions& options) {
  std::string out = "digraph " + quote(workflow.name) + " {\n";
  out += "  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n";

  std::map<std::string, std::size_t> type_color;
  for (const Task& t : workflow.tasks()) {
    std::string attrs = "shape=box";
    if (options.color_by_type) {
      const auto [it, inserted] = type_color.emplace(t.type, type_color.size());
      attrs += util::format(",style=filled,fillcolor=\"%s\"",
                            kPalette[it->second % 8]);
    }
    attrs += util::format(",label=\"%s\\n(%s)\"", t.name.c_str(), t.type.c_str());
    out += "  " + quote(t.name) + " [" + attrs + "];\n";
  }

  const auto task_node = [&workflow](TaskId t) { return quote(workflow.task(t).name); };
  if (options.show_files) {
    for (const File& f : workflow.files()) {
      std::string label = f.name;
      if (options.label_sizes) label += "\\n" + util::format_size(f.size);
      out += "  " + quote("file:" + f.name) +
             " [shape=ellipse,fontsize=10,label=\"" + label + "\"];\n";
    }
    for (FileId f = 0; f < workflow.file_count(); ++f) {
      const std::string file_node = quote("file:" + workflow.file(f).name);
      if (const auto producer = workflow.producer(f)) {
        out += "  " + task_node(*producer) + " -> " + file_node + ";\n";
      }
      for (const TaskId consumer : workflow.consumers(f)) {
        out += "  " + file_node + " -> " + task_node(consumer) + ";\n";
      }
    }
    // Control dependencies have no file vertex; draw them dashed.
    for (TaskId t = 0; t < workflow.task_count(); ++t) {
      for (const TaskId child : workflow.children(t)) {
        const auto outputs = workflow.outputs(t);
        const bool via_file = std::any_of(outputs.begin(), outputs.end(), [&](FileId f) {
          const auto consumers = workflow.consumers(f);
          return std::find(consumers.begin(), consumers.end(), child) != consumers.end();
        });
        if (!via_file) {
          out += "  " + task_node(t) + " -> " + task_node(child) + " [style=dashed];\n";
        }
      }
    }
  } else {
    for (TaskId t = 0; t < workflow.task_count(); ++t) {
      for (const TaskId child : workflow.children(t)) {
        out += "  " + task_node(t) + " -> " + task_node(child) + ";\n";
      }
    }
  }
  out += "}\n";
  return out;
}

void save_dot(const std::string& path, const Workflow& workflow,
              const DotOptions& options) {
  std::ofstream out_file(path, std::ios::binary);
  if (!out_file) throw util::Error("cannot open DOT file for writing: '" + path + "'");
  out_file << to_dot(workflow, options);
  if (!out_file) throw util::Error("write failed: '" + path + "'");
}

}  // namespace bbsim::wf
