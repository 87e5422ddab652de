# Contract checks of the dcolor and dcolor-import CLIs, one case per
# ctest entry:
#
#   cmake -DDCOLOR=<path to dcolor> -DDCOLOR_IMPORT=<path to dcolor-import>
#         -DWORK_DIR=<scratch dir> -DCHECK=<case> -P cli_checks.cmake
#
# Every case runs the tool inside WORK_DIR (emptied first) and asserts exit
# codes and output text; a rejected command must write no file. Cases
# named import-* drive dcolor-import, the others dcolor.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
if(CHECK MATCHES "^import-")
  set(TOOL "${DCOLOR_IMPORT}")
else()
  set(TOOL "${DCOLOR}")
endif()

# Runs the tool with ARGN and fails unless it exits with `code`; the
# output lands in LAST_STDOUT and LAST_STDERR.
function(expect_exit code)
  execute_process(COMMAND "${TOOL}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    list(JOIN ARGN " " cmdline)
    get_filename_component(name "${TOOL}" NAME)
    message(FATAL_ERROR
            "${name} ${cmdline}: expected exit ${code}, got ${rc}\n${out}${err}")
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

function(expect_stdout_matches regex)
  if(NOT LAST_STDOUT MATCHES "${regex}")
    message(FATAL_ERROR "stdout does not match '${regex}':\n${LAST_STDOUT}")
  endif()
endfunction()

function(expect_stdout_lacks needle)
  string(FIND "${LAST_STDOUT}" "${needle}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "stdout holds '${needle}':\n${LAST_STDOUT}")
  endif()
endfunction()

function(expect_no_file name)
  if(EXISTS "${WORK_DIR}/${name}")
    message(FATAL_ERROR "${TOOL} wrote '${name}' although it was rejected")
  endif()
endfunction()

function(expect_stdout_is text)
  if(NOT LAST_STDOUT STREQUAL "${text}")
    message(FATAL_ERROR "stdout is:\n${LAST_STDOUT}\nexpected:\n${text}")
  endif()
endfunction()

# dcolor-import `info` must print exactly `text` for `file`, and `verify`
# must accept the file. Each pinned `info` output carries the header's
# counts and every section checksum, so a change to any of them fails.
function(expect_info file text)
  expect_exit(0 info ${file})
  expect_stdout_is("${text}")
  expect_exit(0 verify ${file})
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
elseif(CHECK STREQUAL "check-max-int-color")
  # 2147483647, the largest color a line can hold, counts as one more
  # distinct color without an allocation the size of its value: the report
  # and exit code are those of any color above the palette. Two adjacent
  # nodes holding it are one conflict.
  expect_exit(0 gen blowup 64 16 16 0 1 g.txt)
  expect_exit(0 color g.txt det 7 c.txt)
  file(READ "${WORK_DIR}/c.txt" coloring)
  file(WRITE "${WORK_DIR}/two.txt" "${coloring}")
  file(APPEND "${WORK_DIR}/c.txt" "0 2147483647\n")
  expect_exit(1 check g.txt c.txt)
  expect_stdout("proper, complete, colors_used=17, max_color=2147483647, conflicts=0, uncolored=0")
  file(STRINGS "${WORK_DIR}/g.txt" lines LIMIT_COUNT 2)
  list(GET lines 1 edge)  # the first "u v" line after the header
  string(REPLACE " " ";" ends "${edge}")
  list(GET ends 0 u)
  list(GET ends 1 v)
  file(APPEND "${WORK_DIR}/two.txt" "${u} 2147483647\n${v} 2147483647\n")
  expect_exit(1 check g.txt two.txt)
  expect_stdout("IMPROPER, complete, colors_used=17, max_color=2147483647, conflicts=1, uncolored=0")
elseif(CHECK STREQUAL "check-malformed-coloring")
  # check compares the coloring's header with the graph's node count
  # before it allocates anything, and every other non-blank line must be
  # exactly "node color": both exit 3 naming the file. A node the file
  # leaves out is uncolored (exit 1).
  file(WRITE "${WORK_DIR}/g.txt" "3 2\n0 1\n1 2\n")
  file(WRITE "${WORK_DIR}/junk.txt" "3\n0 1\n1 x\n2 0\n")
  expect_exit(3 check g.txt junk.txt)
  expect_stderr("junk.txt:3: expected \"node color\", got '1 x'")
  file(WRITE "${WORK_DIR}/lone.txt" "3\n0 1\n1\n")
  expect_exit(3 check g.txt lone.txt)
  expect_stderr("lone.txt:3: expected \"node color\", got '1'")
  file(WRITE "${WORK_DIR}/trailing.txt" "3\n0 1 2\n")
  expect_exit(3 check g.txt trailing.txt)
  expect_stderr("trailing.txt:2: expected \"node color\", got '0 1 2'")
  file(WRITE "${WORK_DIR}/huge.txt" "1000000000000\n0 1\n")
  expect_exit(3 check g.txt huge.txt)
  expect_stderr("coloring has 1000000000000 nodes but the graph has 3")
  file(WRITE "${WORK_DIR}/gaps.txt" "3\n\n0 1\n\n2 0\n")
  expect_exit(1 check g.txt gaps.txt)
  expect_stdout("INCOMPLETE")
  expect_stdout("uncolored=1")
elseif(CHECK STREQUAL "color-edge-list-extra-pairs")
  # The text loader reads exactly the header's m pairs: a header that
  # undercounts is malformed input for color and check alike (exit 3),
  # never a graph that silently lost the later edges.
  file(WRITE "${WORK_DIR}/e.txt" "3 1\n0 1\n1 2\n")
  expect_exit(3 color e.txt greedy 7 out.txt)
  expect_stderr("more pairs than the header's m = 1")
  expect_no_file(out.txt)
  file(WRITE "${WORK_DIR}/c.txt" "3\n0 0\n1 1\n2 1\n")
  expect_exit(3 check e.txt c.txt)
  expect_stderr("more pairs than the header's m = 1")
  file(WRITE "${WORK_DIR}/e.txt" "3 2\n0 1\n1 2\n\n")
  expect_exit(0 color e.txt greedy 7 out.txt)
elseif(CHECK STREQUAL "env-junk")
  # A set DELTACOLOR_* number must be a whole number in range: junk exits 2
  # naming the variable, instead of being ignored or truncated.
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  set(ENV{DELTACOLOR_THREADS} "2x")
  expect_exit(2 color g.txt trial 7 --repeat=2)
  expect_stderr("deltacolor: invalid DELTACOLOR_THREADS='2x'")
  set(ENV{DELTACOLOR_THREADS} "-1")
  expect_exit(2 color g.txt trial 7 --repeat=2)
  # In range it acts: 0 threads means auto.
  set(ENV{DELTACOLOR_THREADS} "0")
  expect_exit(0 color g.txt trial 7 --repeat=2)
  expect_stdout("SWEEP cells=2 ")
elseif(CHECK STREQUAL "retired-frontier-flag")
  # The schedule is no engine option any more (the color trials always step
  # only their undecided nodes), so the retired flag is an unknown flag
  # like any other.
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  expect_exit(2 --frontier color g.txt trial 7 out.txt)
  expect_stderr("unknown flag '--frontier'")
  expect_no_file(out.txt)
elseif(CHECK STREQUAL "retired-ids-flag")
  # The LOCAL id source is fixed by the input format (file ids for .dcsr,
  # shuffled ids for text edge lists), so the retired flag is an unknown
  # flag for each of its old settings, and nothing runs.
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  foreach(flag IN ITEMS --ids=auto --ids=file --ids=shuffled)
    expect_exit(2 ${flag} color g.txt trial 7 out.txt)
    expect_stderr("unknown flag '${flag}'")
    expect_no_file(out.txt)
  endforeach()
elseif(CHECK STREQUAL "color-edge-list-shuffled-ids")
  # color runs a text edge list under shuffled ids (seed 1) and says so on
  # its instance line.
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  expect_exit(0 color g.txt det 7 out.txt)
  expect_stderr(" format=edge-list ")
  expect_stderr(" ids=shuffled")
  expect_exit(0 --load=g.txt color det 7 out2.txt)
  expect_stderr(" ids=shuffled")
elseif(CHECK STREQUAL "color-dcsr-file-ids")
  # color keeps the ids stored in a .dcsr file, so its ids section stays
  # zero-copy, whether the file is the positional <graph> or --load.
  expect_exit(0 gen blowup 32 16 16 0 1 g.dcsr)
  expect_exit(0 color g.dcsr det 7 out.txt)
  expect_stderr(" format=dcsr ")
  expect_stderr(" ids=file")
  expect_exit(0 --load=g.dcsr color det 7 out2.txt)
  expect_stderr(" ids=file")
elseif(CHECK STREQUAL "retired-sweep-flags")
  # The retry, checkpoint-journal and resume flags went with the sweep's
  # retry layer: each is an unknown flag now, and nothing runs.
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  foreach(flag IN ITEMS --retries=2 --journal=j.jsonl --resume)
    expect_exit(2 ${flag} --repeat=2 color g.txt trial 7)
    expect_stderr("unknown flag '${flag}'")
    expect_exit(2 ${flag} color g.txt trial 7 out.txt)
    expect_stderr("unknown flag '${flag}'")
    expect_no_file(out.txt)
    expect_no_file(j.jsonl)
  endforeach()
elseif(CHECK STREQUAL "repeat-batch")
  # --repeat prints per-seed rows and writes no coloring, so an output
  # path is a usage error caught before the graph loads.
  expect_exit(0 gen blowup 32 16 16 0 1 g.txt)
  expect_exit(2 --repeat=2 color g.txt trial 7 out.txt)
  expect_stderr("--repeat writes no coloring")
  expect_no_file(out.txt)
  expect_exit(2 --repeat=2 --load=missing.txt color trial 7 out.txt)
  expect_stderr("--repeat writes no coloring")
  expect_no_file(out.txt)
  expect_exit(0 --repeat=2 color g.txt trial 7)
  expect_stdout_matches("seed 7: rounds=[0-9]+ wall_ms=[0-9.e+-]+ ok — ")
  expect_stdout_matches("seed 8: rounds=[0-9]+ wall_ms=[0-9.e+-]+ ok — ")
  expect_stdout_matches("SWEEP cells=2 workers=[0-9]+ wall_ms=")
  expect_stdout_lacks("status=")
  expect_stdout_lacks("retried=")
elseif(CHECK STREQUAL "gen-regular-dense")
  # High-degree random regular graphs: the repair pass is near-linear, so
  # this finishes well inside the ctest TIMEOUT set in CMakeLists.txt.
  expect_exit(0 gen regular 4096 256 1 g.txt)
  expect_stdout("wrote g.txt: n=4096")
elseif(CHECK STREQUAL "import-gen-path")
  expect_exit(0 gen path 1000 p.dcsr)
  expect_stdout_is(
    "wrote p.dcsr: n=1000 m=999 input_edges=999 Delta=2 bytes=40256\n")
  expect_info(p.dcsr "dcsr v1 n=1000 m=999 Delta=2 bytes=40256
  offsets: offset=192 bytes=8008 checksum=5be779d775747784
  adjacency: offset=8256 bytes=7992 checksum=f4e3b57920ada7fb
  arc_edge: offset=16256 bytes=7992 checksum=26f0b400b84d64e9
  edges: offset=24256 bytes=7992 checksum=8d18eb6237130433
  ids: offset=32256 bytes=8000 checksum=3a840aab2742da95
")
elseif(CHECK STREQUAL "import-gen-cycle")
  expect_exit(0 gen cycle 1000 c.dcsr)
  expect_stdout_is(
    "wrote c.dcsr: n=1000 m=1000 input_edges=1000 Delta=2 bytes=40256\n")
  expect_info(c.dcsr "dcsr v1 n=1000 m=1000 Delta=2 bytes=40256
  offsets: offset=192 bytes=8008 checksum=b2d7e032ec87a558
  adjacency: offset=8256 bytes=8000 checksum=2c67b8ae917c26e5
  arc_edge: offset=16256 bytes=8000 checksum=601226cc03b1b05
  edges: offset=24256 bytes=8000 checksum=cd2b2f349bad066d
  ids: offset=32256 bytes=8000 checksum=3a840aab2742da95
")
elseif(CHECK STREQUAL "import-gen-torus")
  expect_exit(0 gen torus 30 40 t.dcsr)
  expect_stdout_is(
    "wrote t.dcsr: n=1200 m=2400 input_edges=2400 Delta=4 bytes=77056\n")
  expect_info(t.dcsr "dcsr v1 n=1200 m=2400 Delta=4 bytes=77056
  offsets: offset=192 bytes=9608 checksum=f8818aad16d35d1f
  adjacency: offset=9856 bytes=19200 checksum=3e818f579b0e048d
  arc_edge: offset=29056 bytes=19200 checksum=9ea57a8822403eb9
  edges: offset=48256 bytes=19200 checksum=afe001da285c07a9
  ids: offset=67456 bytes=9600 checksum=b5b088d1a46762e5
")
  # A side of 2 emits each wrap edge twice; the duplicates fold.
  expect_exit(0 gen torus 2 7 t2.dcsr)
  expect_stdout_is(
    "wrote t2.dcsr: n=14 m=21 input_edges=28 Delta=3 bytes=1024\n")
  expect_info(t2.dcsr "dcsr v1 n=14 m=21 Delta=3 bytes=1024
  offsets: offset=192 bytes=120 checksum=ea993ba595d06ad8
  adjacency: offset=320 bytes=168 checksum=87673b9120249cf4
  arc_edge: offset=512 bytes=168 checksum=d643dfec3a2180c5
  edges: offset=704 bytes=168 checksum=bf588a15e546674
  ids: offset=896 bytes=112 checksum=c4d9a8af23c5af44
")
elseif(CHECK STREQUAL "import-gen-circulant")
  expect_exit(0 gen circulant 1000 4 ci.dcsr)
  expect_stdout_is(
    "wrote ci.dcsr: n=1000 m=4000 input_edges=4000 Delta=8 bytes=112256\n")
  expect_info(ci.dcsr "dcsr v1 n=1000 m=4000 Delta=8 bytes=112256
  offsets: offset=192 bytes=8008 checksum=b5222e2041dfb40
  adjacency: offset=8256 bytes=32000 checksum=9b8d5ca1360d27d5
  arc_edge: offset=40256 bytes=32000 checksum=fba29ac6db3783b5
  edges: offset=72256 bytes=32000 checksum=3e0735720a380231
  ids: offset=104256 bytes=8000 checksum=3a840aab2742da95
")
elseif(CHECK STREQUAL "import-edges-dc")
  # The repo format: "n m" header, then pairs until EOF (one reversed
  # duplicate and one reversed repeat here).
  file(WRITE "${WORK_DIR}/g.txt" "6 9\n0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n1 0\n3 2\n")
  expect_exit(0 edges g.txt g.dcsr)
  expect_stdout_is("wrote g.dcsr: n=6 m=7 input_edges=9 Delta=3 bytes=512\n")
  expect_info(g.dcsr "dcsr v1 n=6 m=7 Delta=3 bytes=512
  offsets: offset=192 bytes=56 checksum=ac0c66196656970c
  adjacency: offset=256 bytes=56 checksum=13859d21fd93eb34
  arc_edge: offset=320 bytes=56 checksum=2b4ffbd033d00975
  edges: offset=384 bytes=56 checksum=3d3d9a0c9450bd04
  ids: offset=448 bytes=48 checksum=703461c07025044
")
elseif(CHECK STREQUAL "import-edges-snap")
  # Comments (one indented), a blank line, both orientations, a repeat and
  # a self loop, which is skipped and not counted.
  file(WRITE "${WORK_DIR}/s.txt"
       "# Undirected test graph, both orientations and repeats\n"
       "# FromNodeId\tToNodeId\n0\t1\n1\t0\n0\t2\n2\t1\n\n"
       "  # an indented comment\n3\t3\n2\t3\n3 4\n4\t2\n4\t5\n0\t1\n")
  expect_exit(0 edges s.txt s.dcsr)
  expect_stdout_is("wrote s.dcsr: n=6 m=7 input_edges=9 Delta=4 bytes=512\n")
  expect_info(s.dcsr "dcsr v1 n=6 m=7 Delta=4 bytes=512
  offsets: offset=192 bytes=56 checksum=799c7a01eaff6e42
  adjacency: offset=256 bytes=56 checksum=ccb5b969a89f42a4
  arc_edge: offset=320 bytes=56 checksum=c4bb2d059498e335
  edges: offset=384 bytes=56 checksum=bf4e98c0a242ca74
  ids: offset=448 bytes=48 checksum=703461c07025044
")
  # --nodes adds isolated nodes past the largest id.
  expect_exit(0 edges s.txt s9.dcsr --nodes=9)
  expect_stdout_is("wrote s9.dcsr: n=9 m=7 input_edges=9 Delta=4 bytes=640\n")
  expect_info(s9.dcsr "dcsr v1 n=9 m=7 Delta=4 bytes=640
  offsets: offset=192 bytes=80 checksum=b53976c78d4c358c
  adjacency: offset=320 bytes=56 checksum=ccb5b969a89f42a4
  arc_edge: offset=384 bytes=56 checksum=c4bb2d059498e335
  edges: offset=448 bytes=56 checksum=bf4e98c0a242ca74
  ids: offset=512 bytes=72 checksum=49614f10fb0856cd
")
elseif(CHECK STREQUAL "import-edges-bad-input")
  # The readers check every number and pair themselves: an id or a node
  # count past 32 bits, an endpoint >= n (or >= --nodes), a dc self loop
  # and a malformed dc pair list each exit 3 with one "<path>:<line>:"
  # line, never the library's DC_CHECK text, and write nothing.
  file(WRITE "${WORK_DIR}/wide.txt" "# SNAP\n0 1\n0 4294967297\n")
  expect_exit(3 edges wide.txt w.dcsr)
  expect_stderr("wide.txt:3: node id 4294967297 does not fit a 32-bit node id")
  file(WRITE "${WORK_DIR}/wide-n.txt" "4294967297 1\n0 1\n")
  expect_exit(3 edges wide-n.txt w.dcsr)
  expect_stderr("wide-n.txt:1: node count 4294967297 does not fit")
  file(WRITE "${WORK_DIR}/negative.txt" "3 2\n0 1\n1 -1\n")
  expect_exit(3 edges negative.txt w.dcsr)
  expect_stderr("negative.txt:3: node id 18446744073709551615 does not fit")
  file(WRITE "${WORK_DIR}/range.txt" "4 2\n0 1\n1 9\n")
  expect_exit(3 edges range.txt w.dcsr)
  expect_stderr("range.txt:3: edge (1, 9) has an endpoint >= n=4")
  file(WRITE "${WORK_DIR}/loop.txt" "3 1\n2 2\n")
  expect_exit(3 edges loop.txt w.dcsr)
  expect_stderr("loop.txt:2: self loop at node 2")
  file(WRITE "${WORK_DIR}/snap.txt" "# SNAP\n0 1\n1 5\n")
  expect_exit(3 edges snap.txt w.dcsr --nodes=4)
  expect_stderr("snap.txt:3: edge (1, 5) has an endpoint >= n=4")
  # A dc file holds exactly the header's m pairs of numbers: a token that
  # is not a number, a dangling last number and a pair count either way
  # off each exit 3 too.
  file(WRITE "${WORK_DIR}/junk.txt" "3 2\n0 1\n1 x\n")
  expect_exit(3 edges junk.txt w.dcsr)
  expect_stderr("junk.txt:3: 'x' is not a number")
  file(WRITE "${WORK_DIR}/dangling.txt" "3 2\n0\n1 2\n")
  expect_exit(3 edges dangling.txt w.dcsr)
  expect_stderr("dangling.txt:3: node 2 has no partner")
  file(WRITE "${WORK_DIR}/short.txt" "3 3\n0 1\n1 2\n")
  expect_exit(3 edges short.txt w.dcsr)
  expect_stderr("short.txt:1: header declares m=3 but the file has 2 pairs")
  file(WRITE "${WORK_DIR}/long.txt" "3 1\n0 1\n1 2\n")
  expect_exit(3 edges long.txt w.dcsr)
  expect_stderr("long.txt:1: header declares m=1 but the file has 2 pairs")
  string(FIND "${LAST_STDERR}" "DC_CHECK" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "library check text leaked:\n${LAST_STDERR}")
  endif()
  expect_no_file(w.dcsr)
  # Without --nodes the same SNAP file imports, n = max id + 1.
  expect_exit(0 edges snap.txt w.dcsr)
  expect_stdout("n=6 m=2")
elseif(CHECK STREQUAL "import-numeric-args")
  # Every number must parse as a whole token in range; junk exits 2 naming
  # the argument and writes nothing.
  expect_exit(2 gen path abc p.dcsr)
  expect_stderr("invalid n 'abc'")
  expect_exit(2 gen path +3 p.dcsr)
  expect_stderr("invalid n '+3'")
  expect_exit(2 gen path 4294967296 p.dcsr)
  expect_stderr("invalid n '4294967296'")
  expect_no_file(p.dcsr)
  expect_exit(2 gen cycle 5x c.dcsr)
  expect_stderr("invalid n '5x'")
  expect_exit(2 gen circulant 3x 1 c.dcsr)
  expect_stderr("invalid n '3x'")
  expect_exit(2 gen circulant 1000 4x c.dcsr)
  expect_stderr("invalid k '4x'")
  expect_exit(2 gen circulant 1000 -1 c.dcsr)
  expect_stderr("invalid k '-1'")
  expect_no_file(c.dcsr)
  expect_exit(2 gen torus 3 4x t.dcsr)
  expect_stderr("invalid cols '4x'")
  # rows * cols = 2^32 would wrap the 32-bit node count to 0.
  expect_exit(2 gen torus 65536 65536 t.dcsr)
  expect_stderr("torus needs 2 * rows * cols <= 4294967295")
  expect_no_file(t.dcsr)
  file(WRITE "${WORK_DIR}/e.txt" "3 2\n0 1\n1 2\n")
  expect_exit(2 edges e.txt e.dcsr --nodes=abc)
  expect_stderr("invalid --nodes 'abc'")
  expect_exit(2 edges e.txt e.dcsr --nodes=)
  expect_stderr("invalid --nodes ''")
  expect_exit(2 edges e.txt e.dcsr --nodes=4294967296)
  expect_stderr("invalid --nodes '4294967296'")
  expect_no_file(e.dcsr)
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()
