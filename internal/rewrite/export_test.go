package rewrite

// GitlabSchema hands the demo schema of the internal tests to the external
// test package (which exists because difftest imports rewrite).
var GitlabSchema = gitlabSchema
