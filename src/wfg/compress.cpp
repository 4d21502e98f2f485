#include "wfg/compress.hpp"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "support/strings.hpp"

namespace wst::wfg {

namespace {

/// Structural kind of a node for the initial partition: the operation class
/// without process-specific arguments ("Send", "Recv", "Barrier", ...).
std::string structuralKind(const NodeConditions& node) {
  const std::string& d = node.description;
  const std::size_t paren = d.find('(');
  return paren == std::string::npos ? d : d.substr(0, paren);
}

}  // namespace

CompressedGraph compress(const WaitForGraph& graph,
                         const std::vector<trace::ProcId>& restrictTo) {
  std::vector<trace::ProcId> procs;
  if (restrictTo.empty()) {
    for (trace::ProcId p = 0; p < graph.procCount(); ++p) {
      if (graph.node(p).blocked) procs.push_back(p);
    }
  } else {
    procs = restrictTo;
    std::sort(procs.begin(), procs.end());
  }

  CompressedGraph out;
  if (procs.empty()) return out;

  // classOf maps every process (not just blocked ones) to a class id;
  // unblocked processes share the synthetic "running" class, emitted only
  // if referenced.
  const std::size_t p = static_cast<std::size_t>(graph.procCount());
  std::vector<std::int32_t> classOf(p, -1);

  // Initial partition by structural kind.
  std::map<std::string, std::int32_t> kindClass;
  std::vector<std::string> classKey;
  for (const trace::ProcId proc : procs) {
    const std::string kind = structuralKind(graph.node(proc));
    auto [it, inserted] =
        kindClass.emplace(kind, static_cast<std::int32_t>(classKey.size()));
    if (inserted) classKey.push_back(kind);
    classOf[static_cast<std::size_t>(proc)] = it->second;
  }
  const std::int32_t runningClass = static_cast<std::int32_t>(classKey.size());

  // Partition refinement: split classes whose members wait on different
  // class multisets until stable (bounded; each round only splits).
  for (int round = 0; round < 16; ++round) {
    std::map<std::pair<std::int32_t, std::string>, std::int32_t> next;
    std::vector<std::int32_t> newClassOf(classOf);
    std::int32_t nextId = 0;
    bool changed = false;
    for (const trace::ProcId proc : procs) {
      const NodeConditions& node = graph.node(proc);
      // Signature: per clause, sorted (class, count) pairs + semantics.
      std::string sig;
      for (const Clause& clause : node.clauses) {
        std::map<std::int32_t, std::uint32_t> byClass;
        for (const trace::ProcId t : clause.targets) {
          const std::int32_t c = classOf[static_cast<std::size_t>(t)];
          ++byClass[c < 0 ? runningClass : c];
        }
        sig += clause.targets.size() > 1 ? "|or" : "|and";
        for (const auto& [cls, count] : byClass) {
          sig += support::format(",%d:%u", cls, count);
        }
      }
      const auto key = std::make_pair(
          classOf[static_cast<std::size_t>(proc)], std::move(sig));
      auto [it, inserted] = next.emplace(key, nextId);
      if (inserted) ++nextId;
      newClassOf[static_cast<std::size_t>(proc)] = it->second;
    }
    // Detect change: number of classes grew?
    std::unordered_set<std::int32_t> oldIds, newIds;
    for (const trace::ProcId proc : procs) {
      oldIds.insert(classOf[static_cast<std::size_t>(proc)]);
      newIds.insert(newClassOf[static_cast<std::size_t>(proc)]);
    }
    changed = newIds.size() != oldIds.size();
    classOf = std::move(newClassOf);
    if (!changed) break;
  }

  // Renumber classes densely in first-member order and build members.
  std::map<std::int32_t, std::size_t> dense;
  for (const trace::ProcId proc : procs) {
    const std::int32_t c = classOf[static_cast<std::size_t>(proc)];
    auto [it, inserted] = dense.emplace(c, out.classes.size());
    if (inserted) {
      ProcessClass cls;
      cls.description = graph.node(proc).description;
      cls.blocked = graph.node(proc).blocked;
      out.classes.push_back(std::move(cls));
    }
    out.classes[it->second].members.push_back(proc);
  }
  const auto denseOf = [&](trace::ProcId t) -> std::int32_t {
    const std::int32_t c = classOf[static_cast<std::size_t>(t)];
    const auto it = dense.find(c);
    return it == dense.end() ? -1 : static_cast<std::int32_t>(it->second);
  };

  // Aggregate arcs between classes.
  std::map<std::tuple<std::size_t, std::int32_t, bool>, std::uint64_t> agg;
  for (const trace::ProcId proc : procs) {
    const NodeConditions& node = graph.node(proc);
    const auto fromIt = dense.find(classOf[static_cast<std::size_t>(proc)]);
    for (const Clause& clause : node.clauses) {
      const bool orSem = clause.targets.size() > 1;
      for (const trace::ProcId t : clause.targets) {
        ++agg[{fromIt->second, denseOf(t), orSem}];
        ++out.representedArcs;
      }
    }
  }
  for (const auto& [key, multiplicity] : agg) {
    const auto& [from, to, orSem] = key;
    if (to < 0) continue;  // target outside the restricted set
    ClassArc arc;
    arc.from = from;
    arc.to = static_cast<std::size_t>(to);
    arc.orSemantics = orSem;
    arc.multiplicity = multiplicity;
    const std::uint64_t fromSize = out.classes[arc.from].members.size();
    const std::uint64_t toSize = out.classes[arc.to].members.size();
    const std::uint64_t full =
        arc.from == arc.to ? fromSize * (toSize - 1) : fromSize * toSize;
    arc.allToAll = full > 0 && multiplicity == full;
    out.arcs.push_back(arc);
  }
  return out;
}

std::uint64_t CompressedGraph::writeDot(
    const std::function<void(std::string_view)>& sink) const {
  std::uint64_t bytes = 0;
  const auto emit = [&](std::string_view s) {
    bytes += s.size();
    sink(s);
  };
  std::string line;  // one buffer for every line of the graph
  emit("digraph CompressedWaitForGraph {\n  rankdir=LR;\n");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const ProcessClass& cls = classes[i];
    line.assign("  c");
    support::appendInt(line, i);
    line += " [shape=box, label=\"";
    if (cls.members.size() == 1) {
      line += "rank ";
      support::appendInt(line, cls.members.front());
      line += ": ";
    } else {
      support::appendInt(line, cls.members.size());
      line += " ranks (e.g. ";
      support::appendInt(line, cls.members.front());
      line += "): ";
    }
    support::appendDotEscaped(line, cls.description);
    line += "\"];\n";
    emit(line);
  }
  for (const ClassArc& arc : arcs) {
    line.assign("  c");
    support::appendInt(line, arc.from);
    line += " -> c";
    support::appendInt(line, arc.to);
    line += " [label=\"";
    if (arc.allToAll) {
      line += "all-to-all";
    } else {
      support::appendWithCommas(line, arc.multiplicity);
      line += " arcs";
    }
    line += arc.orSemantics ? " (OR)\", style=dashed];\n" : "\"];\n";
    emit(line);
  }
  emit("}\n");
  return bytes;
}

std::string CompressedGraph::toDot() const {
  std::string s;
  writeDot([&](std::string_view v) { s.append(v); });
  return s;
}

std::string CompressedGraph::summary() const {
  std::vector<std::string> parts;
  parts.reserve(classes.size());
  for (const ProcessClass& cls : classes) {
    parts.push_back(support::format("[%zu ranks: %s]", cls.members.size(),
                                    cls.description.c_str()));
  }
  return support::format(
      "%zu class(es), %zu class arc(s) representing %s process arcs: %s",
      classes.size(), arcs.size(),
      support::withCommas(representedArcs).c_str(),
      support::join(parts, " ").c_str());
}

}  // namespace wst::wfg
