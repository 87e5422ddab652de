# Contract checks of the dcolor CLI, one case per ctest entry:
#
#   cmake -DDCOLOR=<path to dcolor> -DWORK_DIR=<scratch dir> -DCHECK=<case>
#         -P cli_checks.cmake
#
# Every case runs dcolor inside WORK_DIR (emptied first) and asserts exit
# codes and output text; a rejected command must write no file.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs dcolor with ARGN and fails unless it exits with `code`; the output
# lands in LAST_STDOUT and LAST_STDERR.
function(expect_exit code)
  execute_process(COMMAND "${DCOLOR}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    list(JOIN ARGN " " cmdline)
    message(FATAL_ERROR
            "dcolor ${cmdline}: expected exit ${code}, got ${rc}\n${out}${err}")
  endif()
  set(LAST_STDOUT "${out}" PARENT_SCOPE)
  set(LAST_STDERR "${err}" PARENT_SCOPE)
endfunction()

function(expect_stderr needle)
  string(FIND "${LAST_STDERR}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${needle}':\n${LAST_STDERR}")
  endif()
endfunction()

function(expect_stdout needle)
  string(FIND "${LAST_STDOUT}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stdout lacks '${needle}':\n${LAST_STDOUT}")
  endif()
endfunction()

function(expect_no_file name)
  if(EXISTS "${WORK_DIR}/${name}")
    message(FATAL_ERROR "dcolor wrote '${name}' although it was rejected")
  endif()
endfunction()

if(CHECK STREQUAL "unknown-flag")
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  expect_exit(0 --load=g.txt color trial 7 ok.txt)
  if(NOT EXISTS "${WORK_DIR}/ok.txt")
    message(FATAL_ERROR "the accepted command wrote no coloring")
  endif()
  # A flag after the positionals must never become the output path.
  expect_exit(2 --load=g.txt color trial 7 --backend=proc)
  expect_stderr("unknown flag '--backend=proc'")
  expect_no_file("--backend=proc")
  expect_exit(2 --load=g.txt color trial 7 --bogus=1)
  expect_no_file("--bogus=1")
  expect_exit(2 --thread=2 --load=g.txt color trial 7 out.txt)
  expect_stderr("did you mean '--threads'")
  expect_no_file(out.txt)
elseif(CHECK STREQUAL "extra-argument")
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  expect_exit(2 --load=g.txt color trial 7 out.txt extra)
  expect_stderr("unexpected extra argument 'extra'")
  expect_no_file(out.txt)
  expect_exit(2 color g.txt trial 7 out.txt extra)
  expect_no_file(out.txt)
elseif(CHECK STREQUAL "gen-infeasible")
  # clique_size < delta needs a Sidon supergraph with a minimum size.
  expect_exit(2 gen blowup 64 16 12 0 7 g.txt)
  expect_stderr("needs at least 28810 cliques")
  expect_exit(2 gen blowup 297 4 3 0 7 g.txt)
  expect_stderr("needs at least 298 cliques")
  expect_exit(2 gen blowup 64 16 17 0 7 g.txt)
  expect_stderr("3 <= size <= delta")
  expect_exit(2 gen blowup 64 16 2 0 7 g.txt)
  expect_no_file(g.txt)
  expect_exit(0 gen blowup 298 4 3 0 7 g.txt)
  # The ring and regular families name the violated condition, too.
  expect_exit(2 gen ring 1 600 1 r.txt)
  expect_stderr("gen ring needs cliques >= 3")
  expect_exit(2 gen ring 3 1 1 r.txt)
  expect_stderr("gen ring needs size >= 3")
  expect_no_file(r.txt)
  expect_exit(2 gen regular 5 3 1 r.txt)
  expect_stderr("gen regular needs n*degree even")
  expect_exit(2 gen regular 4 4 1 r.txt)
  expect_stderr("gen regular needs n > degree")
  expect_exit(2 gen regular 10 0 1 r.txt)
  expect_stderr("gen regular needs degree >= 1")
  expect_exit(2 gen regular -4 2 1 r.txt)
  expect_stderr("gen regular needs n > degree")
  expect_no_file(r.txt)
  expect_exit(0 gen ring 3 3 1 r.txt)
  expect_exit(0 gen regular 6 3 1 r.txt)
elseif(CHECK STREQUAL "numeric-args")
  # Every numeric flag and positional must parse as a whole token in range;
  # junk exits 2 naming the argument and writes nothing.
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  expect_exit(2 --threads=abc color g.txt trial 7 out.txt)
  expect_stderr("invalid --threads 'abc'")
  expect_exit(2 --threads=2x color g.txt trial 7 out.txt)
  expect_stderr("invalid --threads '2x'")
  expect_exit(2 --repeat=2x color g.txt trial 7 out.txt)
  expect_stderr("invalid --repeat '2x'")
  expect_exit(2 --retries=2x --repeat=2 color g.txt trial 7 out.txt)
  expect_stderr("invalid --retries '2x'")
  expect_exit(2 color g.txt trial abc out.txt)
  expect_stderr("invalid seed 'abc'")
  expect_exit(2 color g.txt trial -1 out.txt)
  expect_stderr("invalid seed '-1'")
  expect_no_file(out.txt)
  expect_exit(2 gen ring 3x 5 1 r.txt)
  expect_stderr("invalid cliques '3x'")
  expect_exit(2 gen blowup 64 16 16 abc 1 b.txt)
  expect_stderr("invalid easy% 'abc'")
  expect_exit(2 gen blowup 64 16 16 0 seedx b.txt)
  expect_stderr("invalid seed 'seedx'")
  expect_no_file(r.txt)
  expect_no_file(b.txt)
elseif(CHECK STREQUAL "check-negative-color")
  # A negative color is no color: check must not call the coloring
  # complete. The reader keeps the last line per node, so the appended
  # line sets node 0 to -7.
  expect_exit(0 gen blowup 64 16 16 0 1 g.txt)
  expect_exit(0 color g.txt det 7 c.txt)
  expect_exit(0 check g.txt c.txt)
  expect_stdout("proper, complete")
  file(APPEND "${WORK_DIR}/c.txt" "0 -7\n")
  expect_exit(1 check g.txt c.txt)
  expect_stdout("INCOMPLETE")
  expect_stdout("uncolored=1")
elseif(CHECK STREQUAL "gen-regular-dense")
  # High-degree random regular graphs: the repair pass is near-linear, so
  # this finishes well inside the ctest TIMEOUT set in CMakeLists.txt.
  expect_exit(0 gen regular 4096 256 1 g.txt)
  expect_stdout("wrote g.txt: n=4096")
elseif(CHECK STREQUAL "legacy-journal")
  # --repeat journals written while the multi-process backend existed hold
  # three recovery counters between wall_ms and the summary; --resume
  # skips them and prints the summary that follows.
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  file(WRITE "${WORK_DIR}/j.jsonl"
       "{\"key\":\"file/g.txt/alg=trial/seed=7\",\"status\":\"ok\","
       "\"attempts\":1,\"category\":\"\",\"error\":\"\",\"payload\":"
       "\"1\\u001f20\\u001f0.5\\u001f0\\u001f0\\u001f0\\u001fold row\"}\n")
  expect_exit(0 color g.txt trial 7 --repeat=2 --journal=j.jsonl --resume)
  expect_stdout("seed 7: status=ok rounds=20 wall_ms=0.5 ok (resumed) — old row")
  expect_stdout("seed 8: status=ok")
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
