# Stable test identities: lists every gtest binary's tests twice and fails
# if the two listings differ. ctest names value-parameterized tests after
# gtest's printout of the parameter, which for a type without PrintTo is
# its raw bytes ("N-byte object <...>"). Bytes of an enum or a padding-free
# struct are the same on every run; a pointer in them (or uninitialized
# padding) changes from run to run under address-space randomization, and
# then this check fails: give that parameter type a PrintTo.
#
# Usage: cmake -DBINARIES="bin1|bin2|..." -P check_test_names.cmake
function(list_tests binary out)
  execute_process(COMMAND "${binary}" --gtest_list_tests
                  OUTPUT_VARIABLE listing RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${binary} --gtest_list_tests exited with ${result}")
  endif()
  set(${out} "${listing}" PARENT_SCOPE)
endfunction()

string(REPLACE "|" ";" binaries "${BINARIES}")
set(failed FALSE)
foreach(binary IN LISTS binaries)
  list_tests("${binary}" first)
  list_tests("${binary}" second)
  if(NOT first STREQUAL second)
    message(SEND_ERROR "${binary}: two --gtest_list_tests runs differ")
    set(failed TRUE)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "unstable test names (see above)")
endif()
