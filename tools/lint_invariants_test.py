#!/usr/bin/env python3
"""Unit tests for lint_invariants.py.

Each rule gets (at least) one seeded-violation test proving the linter
catches it, and one clean-code test proving it stays quiet. Run directly:

    python3 tools/lint_invariants_test.py
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lint_invariants as li  # noqa: E402


class FakeTree:
    """A throwaway repo root populated with {relpath: contents}."""

    def __init__(self, files: dict[str, str]):
        self._tmp = tempfile.TemporaryDirectory(prefix="lint_invariants_test_")
        self.root = Path(self._tmp.name)
        for rel, text in files.items():
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

    def lint(self) -> list[li.Finding]:
        return li.lint(self.root, li.discover(self.root))

    def cleanup(self) -> None:
        self._tmp.cleanup()


def run(files: dict[str, str], *, include_headers: bool = True) -> list[li.Finding]:
    """Lints a fixture tree.

    By default a tools/ file includes every src/ header of the fixture, so a
    header seeded for another rule is not also an orphan-module finding.
    """
    if include_headers:
        files = dict(files)
        files["tools/includes_fixture.cpp"] = "".join(
            f'#include "{rel.removeprefix("src/")}"\n'
            for rel in files
            if rel.startswith("src/") and rel.endswith(".hpp")
        )
    tree = FakeTree(files)
    try:
        return tree.lint()
    finally:
        tree.cleanup()


def rules_of(findings: list[li.Finding]) -> list[str]:
    return [f.rule for f in findings]


class ScrubberTest(unittest.TestCase):
    def test_line_comment_blanked(self) -> None:
        out = li.scrub_cpp("int x;  // std::mutex here\nint y;\n")
        self.assertNotIn("std::mutex", out)
        self.assertIn("int y;", out)

    def test_block_comment_preserves_newlines(self) -> None:
        src = "a\n/* std::thread\nstd::thread */\nb\n"
        out = li.scrub_cpp(src)
        self.assertNotIn("std::thread", out)
        self.assertEqual(src.count("\n"), out.count("\n"))

    def test_string_literal_blanked(self) -> None:
        out = li.scrub_cpp('auto s = "std::mutex in a string";\n')
        self.assertNotIn("std::mutex", out)

    def test_escaped_quote_in_string(self) -> None:
        out = li.scrub_cpp('auto s = "say \\"std::thread\\"";\nint keep;\n')
        self.assertNotIn("std::thread", out)
        self.assertIn("int keep;", out)

    def test_raw_string_blanked(self) -> None:
        out = li.scrub_cpp('auto s = R"(std::mutex)";\nint keep;\n')
        self.assertNotIn("std::mutex", out)
        self.assertIn("int keep;", out)

    def test_char_literal_does_not_eat_code(self) -> None:
        out = li.scrub_cpp("char c = '\"'; std::mutex m;\n")
        self.assertIn("std::mutex", out)


class RawConcurrencyTest(unittest.TestCase):
    def test_seeded_violation_caught(self) -> None:
        findings = run(
            {"src/pipeline/worker.cpp": "#include <mutex>\nstd::mutex bad_;\n"}
        )
        self.assertEqual(rules_of(findings), ["raw-concurrency"])
        self.assertEqual(findings[0].line, 2)

    def test_all_primitive_spellings_caught(self) -> None:
        body = (
            "std::thread a;\n"
            "std::condition_variable b;\n"
            "std::lock_guard<std::mutex> c;\n"
            "std::unique_lock<std::mutex> d;\n"
        )
        findings = run({"src/engine/bad.cpp": body})
        # lock_guard/unique_lock lines each also name std::mutex.
        self.assertEqual(len(findings), 6)
        self.assertEqual(set(rules_of(findings)), {"raw-concurrency"})

    def test_runtime_and_common_exempt(self) -> None:
        files = {
            "src/runtime/pool.cpp": "#include <thread>\nstd::thread worker_;\n",
            "src/common/mutex.hpp": "#include <mutex>\nstd::mutex wrapped_;\n",
        }
        self.assertEqual(run(files), [])

    def test_hardware_concurrency_allowed(self) -> None:
        files = {
            "src/pipeline/sort.cpp": "auto n = std::thread::hardware_concurrency();\n",
        }
        self.assertEqual(run(files), [])

    def test_comment_and_string_ignored(self) -> None:
        files = {"src/scene/io.cpp": '// std::mutex\nauto s = "std::thread";\n'}
        self.assertEqual(run(files), [])

    def test_waiver_suppresses(self) -> None:
        files = {
            "src/scene/io.cpp": (
                "#include <mutex>\n"
                "std::mutex legacy_;  // lint-invariants: allow(raw-concurrency)\n"
            ),
        }
        self.assertEqual(run(files), [])


class RawSocketsTest(unittest.TestCase):
    def test_seeded_violation_caught(self) -> None:
        body = (
            "#include <sys/socket.h>\n"
            "int open_conn() { return socket(AF_INET, SOCK_STREAM, 0); }\n"
        )
        findings = run({"src/runtime/shortcut.cpp": body})
        self.assertEqual(rules_of(findings), ["raw-sockets"])
        self.assertEqual(findings[0].line, 2)
        self.assertIn("socket()", findings[0].message)

    def test_global_scope_spelling_caught(self) -> None:
        body = "void f(int fd) { ::send(fd, nullptr, 0, 0); }\n"
        findings = run({"src/engine/leak.cpp": body})
        self.assertEqual(rules_of(findings), ["raw-sockets"])
        self.assertIn("send()", findings[0].message)

    def test_epoll_calls_caught(self) -> None:
        body = (
            "void f() {\n"
            "  int ep = epoll_create1(0);\n"
            "  epoll_ctl(ep, 0, 0, nullptr);\n"
            "  epoll_wait(ep, nullptr, 0, -1);\n"
            "}\n"
        )
        findings = run({"src/gpu/poller.cpp": body})
        self.assertEqual(rules_of(findings), ["raw-sockets"] * 3)

    def test_net_module_exempt(self) -> None:
        body = (
            "void f(int fd) {\n"
            "  ::listen(fd, 64);\n"
            "  ::accept4(fd, nullptr, nullptr, 0);\n"
            "  recv(fd, nullptr, 0, 0);\n"
            "}\n"
        )
        self.assertEqual(run({"src/net/server.cpp": body}), [])

    def test_member_and_namespace_calls_ignored(self) -> None:
        body = (
            "void f(Conn& conn) {\n"
            "  conn.send(buf);\n"
            "  transport->connect(peer);\n"
            "  std::bind(&f, conn);\n"
            "  asio::connect(peer);\n"
            "}\n"
        )
        self.assertEqual(run({"src/runtime/relay.cpp": body}), [])

    def test_comment_and_string_ignored(self) -> None:
        body = '// socket(AF_INET)\nauto s = "recv(fd, ...)";\n'
        self.assertEqual(run({"src/scene/doc.cpp": body}), [])

    def test_waiver_suppresses(self) -> None:
        body = (
            "int f() { return socket(AF_INET, SOCK_DGRAM, 0); }"
            "  // lint-invariants: allow(raw-sockets)\n"
        )
        self.assertEqual(run({"src/runtime/legacy.cpp": body}), [])


class ProcessSpawnTest(unittest.TestCase):
    def test_seeded_fork_caught(self) -> None:
        body = (
            "#include <unistd.h>\n"
            "int spawn() { return fork(); }\n"
        )
        findings = run({"src/runtime/helper.cpp": body})
        self.assertEqual(rules_of(findings), ["process-spawn"])
        self.assertEqual(findings[0].line, 2)
        self.assertIn("fork()", findings[0].message)

    def test_exec_family_and_waitpid_caught(self) -> None:
        body = (
            "void f(char** argv) {\n"
            "  ::vfork();\n"
            "  execv(argv[0], argv);\n"
            "  execvp(argv[0], argv);\n"
            "  posix_spawn(nullptr, argv[0], nullptr, nullptr, argv, nullptr);\n"
            "  int status = 0;\n"
            "  ::waitpid(-1, &status, 0);\n"
            "}\n"
        )
        findings = run({"src/engine/escape.cpp": body})
        self.assertEqual(rules_of(findings), ["process-spawn"] * 5)

    def test_cluster_module_exempt(self) -> None:
        body = (
            "#include <sys/wait.h>\n"
            "#include <unistd.h>\n"
            "void supervise(char** argv) {\n"
            "  if (fork() == 0) execv(argv[0], argv);\n"
            "  int status = 0;\n"
            "  waitpid(-1, &status, 0);\n"
            "}\n"
        )
        self.assertEqual(run({"src/cluster/spawner.cpp": body}), [])

    def test_member_calls_and_condvar_wait_ignored(self) -> None:
        body = (
            "void f(Pool& pool, CondVar& cv, MutexLock& lock) {\n"
            "  pool.fork();\n"
            "  scheduler->waitpid(7);\n"
            "  cv.wait(lock);\n"
            "  cv.wait_for(lock, 100);\n"
            "}\n"
        )
        self.assertEqual(run({"src/runtime/pool.cpp": body}), [])

    def test_wait_method_declaration_ignored(self) -> None:
        body = (
            "class CondVar {\n"
            " public:\n"
            "  void wait(MutexLock& lock);\n"
            "};\n"
        )
        self.assertEqual(run({"src/gpu/sync.hpp": body}), [])

    def test_comment_and_string_ignored(self) -> None:
        body = '// fork() the worker\nauto s = "execv(path, argv)";\n'
        self.assertEqual(run({"src/scene/doc.cpp": body}), [])

    def test_waiver_suppresses(self) -> None:
        body = (
            "int f() { return fork(); }"
            "  // lint-invariants: allow(process-spawn)\n"
        )
        self.assertEqual(run({"src/runtime/legacy.cpp": body}), [])


class FaultPointsTest(unittest.TestCase):
    def test_seeded_arm_caught(self) -> None:
        body = (
            '#include "common/fault.hpp"\n'
            'void f() { fault::arm("cluster.forward:error:p=0.5"); }\n'
        )
        findings = run({"src/runtime/service.cpp": body})
        self.assertEqual(rules_of(findings), ["fault-points"])
        self.assertEqual(findings[0].line, 2)
        self.assertIn("fault::arm()", findings[0].message)

    def test_all_arming_spellings_caught(self) -> None:
        body = (
            "void f(const std::string& spec) {\n"
            "  gaurast::fault::arm_from_env();\n"
            "  auto plan = fault::parse_plan(spec);\n"
            "  ::gaurast::fault::disarm();\n"
            "}\n"
        )
        findings = run({"src/engine/escape.cpp": body})
        self.assertEqual(rules_of(findings), ["fault-points"] * 3)
        self.assertIn("fault::arm_from_env()", findings[0].message)
        self.assertIn("fault::parse_plan()", findings[1].message)
        self.assertIn("fault::disarm()", findings[2].message)

    def test_env_read_caught(self) -> None:
        body = (
            "#include <cstdlib>\n"
            'bool armed() { return std::getenv("GAURAST_FAULT_PLAN"); }\n'
        )
        findings = run({"src/net/server.cpp": body})
        self.assertEqual(rules_of(findings), ["fault-points"])
        self.assertEqual(findings[0].line, 2)
        self.assertIn("arm_from_env", findings[0].message)

    def test_other_env_reads_ignored(self) -> None:
        body = (
            'const char* home = std::getenv("HOME");\n'
            'const char* path = ::getenv("GAURAST_SCENE_DIR");\n'
        )
        self.assertEqual(run({"src/scene/io.cpp": body}), [])

    def test_fault_module_exempt(self) -> None:
        body = (
            "bool arm_from_env() {\n"
            '  const char* spec = std::getenv("GAURAST_FAULT_PLAN");\n'
            "  if (spec == nullptr) return false;\n"
            "  arm(parse_plan(spec));\n"
            "  return true;\n"
            "}\n"
        )
        self.assertEqual(run({"src/common/fault.cpp": body}), [])

    def test_seam_marking_allowed(self) -> None:
        # evaluate()/armed()/the macro are the production-facing half of the
        # fault API; only arming is confined.
        body = (
            "void respond() {\n"
            "  if (fault::armed()) {\n"
            '    auto hit = fault::evaluate("net.server.respond");\n'
            "    (void)hit;\n"
            "  }\n"
            '  GAURAST_FAULT_POINT("net.server.respond");\n'
            "}\n"
        )
        self.assertEqual(run({"src/net/frame_server.cpp": body}), [])

    def test_comment_and_string_ignored(self) -> None:
        body = (
            "// callers must never fault::arm() here\n"
            'auto doc = "set GAURAST_FAULT_PLAN before getenv runs";\n'
        )
        self.assertEqual(run({"src/scene/doc.cpp": body}), [])

    def test_waiver_suppresses(self) -> None:
        body = (
            "void f() { fault::disarm(); }"
            "  // lint-invariants: allow(fault-points)\n"
        )
        self.assertEqual(run({"src/runtime/legacy.cpp": body}), [])


class HalfConfinementTest(unittest.TestCase):
    def test_seeded_violation_caught(self) -> None:
        body = (
            '#include "common/half.hpp"\n'
            "std::uint16_t pack(float v) { return float_to_half_bits(v); }\n"
        )
        findings = run({"src/pipeline/tile_pack.cpp": body})
        self.assertEqual(rules_of(findings), ["half-confinement"])
        self.assertEqual(findings[0].line, 2)
        self.assertIn("float_to_half_bits()", findings[0].message)

    def test_qualified_spellings_caught(self) -> None:
        body = (
            "float f(std::uint16_t bits) {\n"
            "  float a = common::half_bits_to_float(bits);\n"
            "  float b = gaurast::common::half_bits_to_float(bits);\n"
            "  return a + b + ::gaurast::common::half_bits_to_float(bits);\n"
            "}\n"
        )
        findings = run({"src/engine/decode.cpp": body})
        self.assertEqual(rules_of(findings), ["half-confinement"] * 3)
        self.assertIn("half_bits_to_float()", findings[0].message)

    def test_half_module_and_quantizer_exempt(self) -> None:
        files = {
            "src/common/half.hpp": (
                "std::uint16_t float_to_half_bits(float value);\n"
                "float half_bits_to_float(std::uint16_t bits);\n"
            ),
            "src/common/half.cpp": (
                "std::uint16_t float_to_half_bits(float value) { return 0; }\n"
            ),
            "src/scene/quantized.cpp": (
                "auto bits = common::float_to_half_bits(g.opacity);\n"
            ),
        }
        self.assertEqual(run(files), [])

    def test_wrapper_usage_allowed(self) -> None:
        # common::Half and round_to_half are the sanctioned API; only the
        # raw bit conversions are confined.
        body = (
            "common::Half h = common::round_to_half(1.5f);\n"
            "float back = h.to_float();\n"
        )
        self.assertEqual(run({"src/scene/io.cpp": body}), [])

    def test_comment_and_string_ignored(self) -> None:
        body = (
            "// never call float_to_half_bits() outside the half module\n"
            'auto doc = "half_bits_to_float(bits)";\n'
        )
        self.assertEqual(run({"src/gsmath/doc.cpp": body}), [])

    def test_waiver_suppresses(self) -> None:
        body = (
            "auto b = float_to_half_bits(x);"
            "  // lint-invariants: allow(half-confinement)\n"
        )
        self.assertEqual(run({"src/runtime/legacy.cpp": body}), [])


class SimdConfinementTest(unittest.TestCase):
    def test_seeded_intrinsics_caught(self) -> None:
        body = (
            "#include <immintrin.h>\n"
            "float sum(const float* p) {\n"
            "  __m256 v = _mm256_loadu_ps(p);\n"
            "  return _mm_cvtss_f32(_mm256_castps256_ps128(v));\n"
            "}\n"
        )
        findings = run({"src/pipeline/rasterize.cpp": body})
        self.assertEqual(rules_of(findings), ["simd-confinement"] * 5)
        self.assertEqual([f.line for f in findings], [1, 3, 3, 4, 4])
        self.assertIn("immintrin.h", findings[0].message)

    def test_all_intrinsic_headers_caught(self) -> None:
        body = "#include <emmintrin.h>\n#  include < xmmintrin.h >\n"
        findings = run({"src/gsmath/conic.cpp": body})
        self.assertEqual(rules_of(findings), ["simd-confinement"] * 2)

    def test_target_attributes_and_vector_types_caught(self) -> None:
        body = (
            '__attribute__((target("avx2,fma"))) void f();\n'
            '[[gnu::target("avx")]] void g();\n'
            "typedef float v8 __attribute__((vector_size(32)));\n"
        )
        findings = run({"src/core/pe.cpp": body})
        self.assertEqual(rules_of(findings), ["simd-confinement"] * 3)
        self.assertEqual([f.line for f in findings], [1, 2, 3])

    def test_fast_raster_kernel_exempt(self) -> None:
        body = (
            "#include <xmmintrin.h>\n"
            '__attribute__((target("avx"))) void span();\n'
            "int bits(__m128 v) { return _mm_movemask_ps(v); }\n"
        )
        self.assertEqual(run({"src/pipeline/raster_fast.cpp": body}), [])

    def test_lookalike_names_and_outside_src_ignored(self) -> None:
        body = (
            "int my_mm_count(int x);\n"
            "int __m128_count = 0;\n"
            "void retarget(int target);\n"
        )
        self.assertEqual(run({"src/common/stats.cpp": body}), [])
        # Tests and tools may use intrinsics freely (outside the scan).
        self.assertEqual(
            run({"tests/simd_probe.cpp": "#include <immintrin.h>\n"}), []
        )

    def test_comment_and_string_ignored(self) -> None:
        body = (
            "// _mm256_add_ps(a, b) would contract under FMA\n"
            'auto doc = "#include <immintrin.h>";\n'
        )
        self.assertEqual(run({"src/pipeline/sort.cpp": body}), [])

    def test_waiver_suppresses(self) -> None:
        body = (
            "#include <xmmintrin.h>  // lint-invariants: allow(simd-confinement)\n"
        )
        self.assertEqual(run({"src/common/stats.cpp": body}), [])


class KernelLoopTest(unittest.TestCase):
    def test_seeded_violation_caught(self) -> None:
        body = (
            "void raster() {\n"
            "  for (int i = 0; i < n; ++i) {\n"
            "    GAURAST_CHECK(i >= 0);\n"
            "  }\n"
            "}\n"
        )
        findings = run({"src/pipeline/rasterize.cpp": body})
        self.assertEqual(rules_of(findings), ["check-in-kernel-loop"])
        self.assertEqual(findings[0].line, 3)

    def test_check_msg_in_while_caught(self) -> None:
        body = (
            "void f() {\n"
            "  while (more()) {\n"
            '    GAURAST_CHECK_MSG(ok(), "bad");\n'
            "  }\n"
            "}\n"
        )
        findings = run({"src/gsmath/sh.cpp": body})
        self.assertEqual(rules_of(findings), ["check-in-kernel-loop"])

    def test_braceless_loop_body_caught(self) -> None:
        body = "void f() {\n  for (int i = 0; i < n; ++i) GAURAST_CHECK(i);\n}\n"
        findings = run({"src/pipeline/bin.cpp": body})
        self.assertEqual(rules_of(findings), ["check-in-kernel-loop"])

    def test_dcheck_in_loop_allowed(self) -> None:
        body = (
            "void f() {\n"
            "  for (int i = 0; i < n; ++i) {\n"
            "    GAURAST_DCHECK(i >= 0);\n"
            '    GAURAST_DCHECK_MSG(i < n, "range");\n'
            "  }\n"
            "}\n"
        )
        self.assertEqual(run({"src/pipeline/rasterize.cpp": body}), [])

    def test_check_before_and_after_loop_allowed(self) -> None:
        body = (
            "void f() {\n"
            "  GAURAST_CHECK(n > 0);\n"
            "  for (int i = 0; i < n; ++i) { work(i); }\n"
            '  GAURAST_CHECK_MSG(done(), "incomplete");\n'
            "}\n"
        )
        self.assertEqual(run({"src/pipeline/preprocess.cpp": body}), [])

    def test_do_while_tail_does_not_leak_pending_body(self) -> None:
        body = (
            "void f() {\n"
            "  do { work(); } while (more());\n"
            "  GAURAST_CHECK(done());\n"
            "}\n"
        )
        self.assertEqual(run({"src/pipeline/bin.cpp": body}), [])

    def test_check_in_do_body_caught(self) -> None:
        body = "void f() {\n  do {\n    GAURAST_CHECK(x);\n  } while (more());\n}\n"
        findings = run({"src/pipeline/bin.cpp": body})
        self.assertEqual(rules_of(findings), ["check-in-kernel-loop"])

    def test_non_kernel_dir_unrestricted(self) -> None:
        body = (
            "void f() {\n"
            "  for (int i = 0; i < n; ++i) {\n"
            "    GAURAST_CHECK(i >= 0);\n"
            "  }\n"
            "}\n"
        )
        self.assertEqual(run({"src/runtime/service.cpp": body}), [])


class BackendRegistrationTest(unittest.TestCase):
    REGISTRY = (
        '#include "engine/registry.hpp"\n'
        "void register_builtin_backends() {\n"
        "  reg(std::make_unique<GoodBackend>());\n"
        "}\n"
    )

    def test_seeded_unregistered_subclass_caught(self) -> None:
        files = {
            "src/engine/registry.cpp": self.REGISTRY,
            "src/engine/backends.hpp": (
                "class GoodBackend : public RenderBackend {};\n"
                "class OrphanBackend : public RenderBackend {};\n"
            ),
        }
        findings = run(files)
        self.assertEqual(rules_of(findings), ["backend-registration"])
        self.assertIn("OrphanBackend", findings[0].message)
        self.assertEqual(findings[0].line, 2)

    def test_registered_subclasses_clean(self) -> None:
        files = {
            "src/engine/registry.cpp": self.REGISTRY,
            "src/engine/backends.hpp": (
                "class GoodBackend : public RenderBackend {};\n"
            ),
        }
        self.assertEqual(run(files), [])

    def test_qualified_and_final_forms_recognized(self) -> None:
        files = {
            "src/engine/registry.cpp": self.REGISTRY,
            "src/accel/edge.hpp": (
                "class EdgeBackend final : public engine::RenderBackend {};\n"
            ),
        }
        findings = run(files)
        self.assertEqual(rules_of(findings), ["backend-registration"])
        self.assertIn("EdgeBackend", findings[0].message)


class MutexGuardCoverageTest(unittest.TestCase):
    def test_seeded_unannotated_mutex_caught(self) -> None:
        files = {
            "src/runtime/cache.hpp": (
                "class Cache {\n"
                " private:\n"
                "  mutable common::Mutex mutex_;\n"
                "  int entries_ = 0;\n"
                "};\n"
            ),
        }
        findings = run(files)
        self.assertEqual(rules_of(findings), ["mutex-guard-coverage"])
        self.assertEqual(findings[0].line, 3)
        self.assertIn("mutex_", findings[0].message)

    def test_guarded_mutex_clean(self) -> None:
        files = {
            "src/runtime/cache.hpp": (
                "class Cache {\n"
                " private:\n"
                "  mutable common::Mutex mutex_;\n"
                "  int entries_ GAURAST_GUARDED_BY(mutex_) = 0;\n"
                "};\n"
            ),
        }
        self.assertEqual(run(files), [])

    def test_requires_reference_counts_as_coverage(self) -> None:
        files = {
            "src/engine/reg.hpp": (
                "class Reg {\n"
                "  void grow() GAURAST_REQUIRES(mutex_);\n"
                "  common::Mutex mutex_;\n"
                "};\n"
            ),
        }
        self.assertEqual(run(files), [])

    def test_wrapper_home_dir_exempt(self) -> None:
        files = {"src/common/mutex.hpp": "class Mutex {};\nMutex self_;\n"}
        self.assertEqual(run(files), [])

    def test_other_mutex_annotation_does_not_cover(self) -> None:
        files = {
            "src/runtime/two.hpp": (
                "class Two {\n"
                "  common::Mutex a_;\n"
                "  common::Mutex b_;\n"
                "  int x_ GAURAST_GUARDED_BY(a_) = 0;\n"
                "};\n"
            ),
        }
        findings = run(files)
        self.assertEqual(rules_of(findings), ["mutex-guard-coverage"])
        self.assertIn("b_", findings[0].message)


class OrphanModuleTest(unittest.TestCase):
    HEADER = "#pragma once\nint widget();\n"

    def test_header_without_includer_caught(self) -> None:
        findings = run({"src/sim/widget.hpp": self.HEADER}, include_headers=False)
        self.assertEqual(rules_of(findings), ["orphan-module"])
        self.assertEqual(findings[0].line, 1)
        self.assertIn("src/sim/widget.hpp", findings[0].message)

    def test_test_only_includer_caught(self) -> None:
        files = {
            "src/sim/widget.hpp": self.HEADER,
            "tests/widget_test.cpp": '#include "sim/widget.hpp"\n',
        }
        findings = run(files, include_headers=False)
        self.assertEqual(rules_of(findings), ["orphan-module"])

    def test_own_cpp_includer_caught(self) -> None:
        files = {
            "src/sim/widget.hpp": self.HEADER,
            "src/sim/widget.cpp": (
                '#include "sim/widget.hpp"\nint widget() { return 1; }\n'
            ),
        }
        findings = run(files, include_headers=False)
        self.assertEqual(rules_of(findings), ["orphan-module"])
        self.assertEqual(findings[0].path.name, "widget.hpp")

    def test_commented_out_includer_caught(self) -> None:
        files = {
            "src/sim/widget.hpp": self.HEADER,
            "tools/cli.cpp": (
                '// #include "sim/widget.hpp"\n/*\n#include "sim/widget.hpp"\n*/\n'
            ),
        }
        findings = run(files, include_headers=False)
        self.assertEqual(rules_of(findings), ["orphan-module"])

    def test_bench_includer_clean(self) -> None:
        files = {
            "src/sim/widget.hpp": self.HEADER,
            "bench/bench_widget.cpp": '#include "sim/widget.hpp"\n',
        }
        self.assertEqual(run(files, include_headers=False), [])

    def test_perfbench_includer_clean(self) -> None:
        files = {
            "src/sim/widget.hpp": self.HEADER,
            "perfbench/src/main.cpp": '#include "sim/widget.hpp"\n',
        }
        self.assertEqual(run(files, include_headers=False), [])

    def test_other_src_file_includer_clean(self) -> None:
        files = {
            "src/sim/widget.hpp": self.HEADER,
            "src/core/user.cpp": '#include "sim/widget.hpp"\n',
        }
        self.assertEqual(run(files, include_headers=False), [])

    def test_waiver_suppresses(self) -> None:
        files = {
            "src/sim/widget.hpp": (
                "// Widget.  // lint-invariants: allow(orphan-module)\n" + self.HEADER
            ),
        }
        self.assertEqual(run(files, include_headers=False), [])

    def test_subset_lint_still_reads_includer_trees(self) -> None:
        tree = FakeTree(
            {
                "src/sim/widget.hpp": self.HEADER,
                "src/sim/orphan.hpp": self.HEADER,
                "examples/demo.cpp": '#include "sim/widget.hpp"\n',
            }
        )
        try:
            paths = [tree.root / "src/sim/widget.hpp", tree.root / "src/sim/orphan.hpp"]
            findings = li.lint(tree.root, paths)
            self.assertEqual(rules_of(findings), ["orphan-module"])
            self.assertEqual(findings[0].path.name, "orphan.hpp")
        finally:
            tree.cleanup()


class DriverTest(unittest.TestCase):
    def test_list_rules_exits_zero(self) -> None:
        self.assertEqual(li.main(["--list-rules"]), 0)

    def test_real_tree_is_clean(self) -> None:
        root = Path(__file__).resolve().parent.parent
        if not (root / "src").is_dir():
            self.skipTest("not running inside the repo checkout")
        findings = li.lint(root, li.discover(root))
        self.assertEqual(
            findings, [], "the real tree must lint clean; fix or waive findings"
        )

    def test_subset_lint_still_sees_registry(self) -> None:
        tree = FakeTree(
            {
                "src/engine/registry.cpp": BackendRegistrationTest.REGISTRY,
                "src/accel/orphan.hpp": (
                    "class OrphanBackend : public RenderBackend {};\n"
                ),
                "tools/cli.cpp": '#include "accel/orphan.hpp"\n',
            }
        )
        try:
            findings = li.lint(tree.root, [tree.root / "src/accel/orphan.hpp"])
            self.assertEqual(rules_of(findings), ["backend-registration"])
        finally:
            tree.cleanup()


if __name__ == "__main__":
    unittest.main(verbosity=2)
