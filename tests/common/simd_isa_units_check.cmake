# Checks that no ISA-flagged translation unit (the -mavx2 kernel units)
# defines a weak symbol that any other object in the libraries defines too.
#
# An inline or template function used in an -mavx2 unit is emitted there
# as a weak (COMDAT) copy compiled with AVX2 instructions.  When another
# object emits the same function, the linker keeps one copy for every
# caller, and if it keeps the AVX2 one the process faults with SIGILL on a
# CPU without AVX2, inside code that never passed the runtime ISA check.
#
#   cmake -DNM=<nm> -DARCHIVES=<a|b|...> -DISA_UNIT=<member> -P <this>
foreach(var NM ARCHIVES ISA_UNIT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "simd_isa_units_check: ${var} is not set")
  endif()
endforeach()

string(REPLACE "|" ";" ARCHIVES "${ARCHIVES}")
string(REPLACE "." "\\." unit "${ISA_UNIT}")

set(listing "")
foreach(archive IN LISTS ARCHIVES)
  execute_process(COMMAND "${NM}" -A --defined-only "${archive}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${archive}: ${err}")
  endif()
  string(APPEND listing "${out}")
endforeach()

# Lines look like "<archive>:<member>:<address> <type> <mangled name>".
set(isa_line "[^\n]*:${unit}:[0-9a-fA-F]* [WVu] [^\n]*")
string(REGEX MATCHALL "${isa_line}" isa_weak "${listing}")
string(REGEX REPLACE "[^\n]*:${unit}:[^\n]*\n" "" others "${listing}")

set(shared "")
foreach(line IN LISTS isa_weak)
  string(REGEX REPLACE "^.* " "" symbol "${line}")
  # The personality-routine reference is data, identical in every unit.
  if(symbol MATCHES "^DW\\.ref\\.")
    continue()
  endif()
  string(FIND "${others}" " ${symbol}\n" pos)
  if(NOT pos EQUAL -1)
    list(APPEND shared "${line}")
  endif()
endforeach()

list(LENGTH isa_weak checked)
if(shared)
  list(JOIN shared "\n  " report)
  message(FATAL_ERROR
    "ISA-flagged units define weak symbols that other objects define too; "
    "move the code they use out of line into a baseline unit:\n  ${report}")
endif()
message(STATUS "${checked} weak symbols in ISA-flagged units, none shared")
